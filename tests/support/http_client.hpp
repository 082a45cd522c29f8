#pragma once
// A minimal blocking loopback HTTP/1.1 client for tests and bench_perf: one
// request per connection (Connection: close), raw POSIX sockets, so a caller
// sees exactly the bytes a scraper would.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace statfi::testsupport {

/// Connect to 127.0.0.1:@p port and send @p request; -1 when the
/// connection fails.
inline int http_send(std::uint16_t port, const std::string& request) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
    return fd;
}

/// One exchange against 127.0.0.1:@p port; returns the full response
/// (headers + body), or "" when the connection fails.
inline std::string http_exchange(std::uint16_t port,
                                 const std::string& request) {
    const int fd = http_send(port, request);
    if (fd < 0) return "";
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

/// A GET whose response the caller reads as it arrives, for chunked
/// streams such as /campaigns/<id>/events?follow=1. Every read has a
/// deadline, so a stream that never ends fails a test instead of hanging it.
class HttpStream {
public:
    HttpStream(std::uint16_t port, const std::string& target)
        : fd_(http_send(port, "GET " + target +
                                  " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                  "Connection: close\r\n\r\n")) {}
    ~HttpStream() {
        if (fd_ >= 0) ::close(fd_);
    }
    HttpStream(const HttpStream&) = delete;
    HttpStream& operator=(const HttpStream&) = delete;

    /// Read until @p marker has arrived; false if @p timeout passes first.
    bool read_until(const std::string& marker,
                    std::chrono::milliseconds timeout) {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        while (response_.find(marker) == std::string::npos)
            if (read_some(deadline) <= 0) return false;
        return true;
    }

    /// Read until the server closes the connection; false if @p timeout
    /// passes first.
    bool read_to_close(std::chrono::milliseconds timeout) {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        for (;;) {
            const int got = read_some(deadline);
            if (got <= 0) return got == 0;
        }
    }

    [[nodiscard]] const std::string& response() const noexcept {
        return response_;
    }

private:
    /// 1 = bytes appended, 0 = connection closed, -1 = deadline passed.
    int read_some(std::chrono::steady_clock::time_point deadline) {
        if (fd_ < 0) return 0;
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count();
        pollfd pfd{fd_, POLLIN, 0};
        if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0)
            return -1;
        char buf[4096];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0) return 0;
        response_.append(buf, static_cast<std::size_t>(n));
        return 1;
    }

    int fd_;
    std::string response_;
};

/// Decode an HTTP/1.1 chunked body. Returns false on framing errors;
/// @p terminated reports whether the 0-size final chunk arrived.
inline bool dechunk(const std::string& raw, std::string& body,
                    bool& terminated) {
    body.clear();
    terminated = false;
    std::size_t pos = 0;
    while (pos < raw.size()) {
        const auto eol = raw.find("\r\n", pos);
        if (eol == std::string::npos) return false;
        const unsigned long size =
            std::strtoul(raw.substr(pos, eol - pos).c_str(), nullptr, 16);
        if (size == 0) {
            terminated = true;
            return true;
        }
        if (eol + 2 + size + 2 > raw.size()) return false;
        body.append(raw, eol + 2, size);
        pos = eol + 2 + size + 2;
    }
    return true;  // well-formed so far, just not terminated
}

}  // namespace statfi::testsupport
