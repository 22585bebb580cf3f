// larserved as a child process: spawned with its default flags and an
// ephemeral port, observed through /proc, stopped with SIGTERM.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace larbench {

class ServerProcess {
public:
    /// Spawns `binary --port 0` (stderr appended to `logPath`) and waits
    /// for its "listening on" line. Throws std::runtime_error on failure.
    ServerProcess(const std::string& binary, const std::string& logPath);
    ~ServerProcess();
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }
    [[nodiscard]] pid_t pid() const { return pid_; }

    /// User + system CPU seconds of the whole process so far.
    [[nodiscard]] double cpuSeconds() const;
    /// Peak resident set (VmHWM) in MiB.
    [[nodiscard]] double peakRssMb() const;

    /// SIGTERM (graceful drain), then waits; SIGKILL after 15 s.
    void stop();

private:
    pid_t pid_ = -1;
    int stdoutFd_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace larbench
