// A minimal blocking HTTP/1.1 keep-alive client.
//
// The benchmark carries its own client rather than the program's
// net::HttpClient, so that a change to the program's client code cannot
// move the figures measured against its server.
#pragma once

#include <cstdint>
#include <string>

namespace larbench {

struct HttpResult {
    int status = 0;    ///< 0 when the exchange failed at the socket level
    std::string body;
    double ms = 0.0;   ///< request sent → response fully read
};

class Connection {
public:
    explicit Connection(std::uint16_t port);
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Sends one request and reads the whole response. Reconnects first
    /// when the server closed the previous exchange.
    HttpResult request(const std::string& method, const std::string& path,
                       const std::string& body);

private:
    bool connect();
    void close();

    std::uint16_t port_;
    int fd_ = -1;
    std::string buffer_; ///< bytes read past the previous response
};

} // namespace larbench
