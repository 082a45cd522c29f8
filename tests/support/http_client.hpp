#pragma once
// A minimal blocking loopback HTTP/1.1 client for tests and bench_perf: one
// request per connection (Connection: close), raw POSIX sockets, so a caller
// sees exactly the bytes a scraper would.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>

namespace statfi::testsupport {

/// One exchange against 127.0.0.1:@p port; returns the full response
/// (headers + body), or "" when the connection fails.
inline std::string http_exchange(std::uint16_t port,
                                 const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
}

inline std::string http_get(std::uint16_t port, const std::string& target,
                            const std::string& method = "GET") {
    return http_exchange(port, method + " " + target +
                                   " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                   "Connection: close\r\n\r\n");
}

inline std::string http_post(std::uint16_t port, const std::string& target,
                             const std::string& body) {
    return http_exchange(port, "POST " + target +
                                   " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                   "Content-Length: " +
                                   std::to_string(body.size()) +
                                   "\r\nConnection: close\r\n\r\n" + body);
}

inline std::string http_body(const std::string& response) {
    const auto pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? "" : response.substr(pos + 4);
}

}  // namespace statfi::testsupport
