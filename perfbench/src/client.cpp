#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace larbench {

Connection::Connection(std::uint16_t port) : port_(port) {}

Connection::~Connection() { close(); }

void Connection::close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
}

bool Connection::connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        close();
        return false;
    }
    return true;
}

namespace {

bool sendAll(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

HttpResult Connection::request(const std::string& method, const std::string& path,
                               const std::string& body) {
    HttpResult result;
    if (fd_ < 0 && !connect()) return result;

    std::string wire = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty()) {
        wire += "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n";
    }
    wire += "\r\n";
    wire += body;

    const auto start = std::chrono::steady_clock::now();
    if (!sendAll(fd_, wire)) {
        close();
        return result;
    }
    std::size_t headerEnd = std::string::npos;
    std::size_t contentLength = 0;
    bool closeAfter = false;
    char chunk[16384];
    while (true) {
        if (headerEnd == std::string::npos) {
            headerEnd = buffer_.find("\r\n\r\n");
            if (headerEnd != std::string::npos) {
                // Status line "HTTP/1.1 200 OK", then headers.
                const std::size_t sp = buffer_.find(' ');
                result.status = std::atoi(buffer_.c_str() + sp + 1);
                std::size_t line = buffer_.find("\r\n") + 2;
                while (line < headerEnd) {
                    const std::size_t eol = buffer_.find("\r\n", line);
                    const std::size_t colon = buffer_.find(':', line);
                    if (colon < eol) {
                        const std::string name = buffer_.substr(line, colon - line);
                        const char* value = buffer_.c_str() + colon + 1;
                        if (strcasecmp(name.c_str(), "Content-Length") == 0)
                            contentLength = std::strtoull(value, nullptr, 10);
                        else if (strcasecmp(name.c_str(), "Connection") == 0)
                            closeAfter = std::strstr(value, "close") != nullptr;
                    }
                    line = eol + 2;
                }
                headerEnd += 4;
            }
        }
        if (headerEnd != std::string::npos && buffer_.size() >= headerEnd + contentLength) {
            result.body = buffer_.substr(headerEnd, contentLength);
            buffer_.erase(0, headerEnd + contentLength);
            break;
        }
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            close();
            result.status = 0;
            return result;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    result.ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (closeAfter) close();
    return result;
}

} // namespace larbench
