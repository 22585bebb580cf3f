#include "server_proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace larbench {

ServerProcess::ServerProcess(const std::string& binary, const std::string& logPath) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    const int logFd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (logFd < 0) throw std::runtime_error("cannot open " + logPath);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
        // Die with the benchmark, whatever way it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        ::dup2(out[1], STDOUT_FILENO);
        ::dup2(logFd, STDERR_FILENO);
        const char* argv[] = {binary.c_str(), "--port", "0", nullptr};
        ::execv(binary.c_str(), const_cast<char* const*>(argv));
        ::_exit(127);
    }
    ::close(out[1]);
    ::close(logFd);
    stdoutFd_ = out[0];

    // "larserved listening on 127.0.0.1:<port>\n"
    std::string line;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (line.find('\n') == std::string::npos) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        pollfd p{stdoutFd_, POLLIN, 0};
        if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) break;
        char buf[256];
        const ssize_t n = ::read(stdoutFd_, buf, sizeof buf);
        if (n <= 0) break;
        line.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t colon = line.rfind(':');
    if (line.find("listening on") == std::string::npos || colon == std::string::npos) {
        stop();
        throw std::runtime_error("larserved did not start (see " + logPath + ")");
    }
    port_ = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::cpuSeconds() const {
    // The process's user + system CPU over all its threads: the utime +
    // stime of /proc/<pid>/stat, at nanosecond rather than tick resolution.
    // 0 once the process is gone (its requests then fail the run anyway).
    clockid_t clock;
    timespec ts{};
    if (::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0) return 0.0;
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ServerProcess::peakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

void ServerProcess::stop() {
    if (pid_ > 0) {
        ::kill(pid_, SIGTERM);
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (std::chrono::steady_clock::now() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }
    if (stdoutFd_ >= 0) ::close(stdoutFd_);
    stdoutFd_ = -1;
}

} // namespace larbench
