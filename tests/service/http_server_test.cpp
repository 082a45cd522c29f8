// HttpServer failure taxonomy: every malformed, oversized, slow, or
// truncated request must map to its documented status (400/404/405/408/413)
// and close the connection — never hang a handler thread. Exercised with raw
// POSIX sockets so the test controls exactly which bytes arrive, and when.

#include "telemetry/http.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "../support/http_client.hpp"

namespace statfi::telemetry {
namespace {

int connect_loopback(std::uint16_t port) {
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
    return fd;
}

void send_all(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
    }
}

std::string recv_all(int fd) {
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
}

/// Send @p request in one shot and return the full response.
std::string http_exchange(std::uint16_t port, const std::string& request) {
    const int fd = connect_loopback(port);
    if (fd < 0) return "";
    send_all(fd, request);
    const std::string response = recv_all(fd);
    ::close(fd);
    return response;
}

std::string status_line(const std::string& response) {
    const auto eol = response.find("\r\n");
    return eol == std::string::npos ? response : response.substr(0, eol);
}

std::string body_of(const std::string& response) {
    const auto pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// A server with one GET route, one POST echo route, and one prefix route —
/// enough surface to exercise the whole dispatch and failure taxonomy.
struct ServerFixture {
    HttpServer server;

    explicit ServerFixture(HttpServer::Options options = tight())
        : server(options) {
        server.route("GET", "/ping", [](const HttpRequest&) {
            return HttpResponse{200, "text/plain", "pong\n"};
        });
        server.route("POST", "/echo", [](const HttpRequest& req) {
            return HttpResponse{200, "text/plain", req.body};
        });
        server.route_prefix("GET", "/files/", [](const HttpRequest& req) {
            return HttpResponse{200, "text/plain", "prefix:" + req.target};
        });
        server.route_prefix("GET", "/files/deep/", [](const HttpRequest& req) {
            return HttpResponse{200, "text/plain", "deep:" + req.target};
        });
        server.start();
    }

    /// Small caps and a short timeout so the negative tests run in
    /// milliseconds, not the production two seconds.
    static HttpServer::Options tight() {
        HttpServer::Options o;
        o.handler_threads = 2;
        o.max_request_bytes = 1024;
        o.read_timeout_ms = 200;
        return o;
    }
};

TEST(HttpServer, ServesRegisteredGetRoute) {
    ServerFixture fx;
    const auto response =
        http_exchange(fx.server.port(),
                 "GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    EXPECT_NE(status_line(response).find("200"), std::string::npos);
    EXPECT_EQ(body_of(response), "pong\n");
}

TEST(HttpServer, PostBodyReachesHandler) {
    ServerFixture fx;
    const std::string payload = "{\"model\":\"micronet\"}";
    const auto response = http_exchange(
        fx.server.port(), "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                              std::to_string(payload.size()) +
                              "\r\nConnection: close\r\n\r\n" + payload);
    EXPECT_NE(status_line(response).find("200"), std::string::npos);
    EXPECT_EQ(body_of(response), payload);
}

TEST(HttpServer, LongestPrefixWins) {
    ServerFixture fx;
    EXPECT_EQ(body_of(http_exchange(fx.server.port(),
                               "GET /files/a HTTP/1.1\r\n\r\n")),
              "prefix:/files/a");
    EXPECT_EQ(body_of(http_exchange(fx.server.port(),
                               "GET /files/deep/b HTTP/1.1\r\n\r\n")),
              "deep:/files/deep/b");
}

TEST(HttpServer, QueryStringIsStripped) {
    ServerFixture fx;
    const auto response =
        http_exchange(fx.server.port(), "GET /ping?verbose=1 HTTP/1.1\r\n\r\n");
    EXPECT_NE(status_line(response).find("200"), std::string::npos);
}

TEST(HttpServer, HeadStripsBody) {
    ServerFixture fx;
    const auto response =
        http_exchange(fx.server.port(), "HEAD /ping HTTP/1.1\r\n\r\n");
    EXPECT_NE(status_line(response).find("200"), std::string::npos);
    EXPECT_TRUE(body_of(response).empty());
    // Content-Length still describes the GET body a real GET would return.
    EXPECT_NE(response.find("Content-Length: 5"), std::string::npos);
}

TEST(HttpServer, MalformedRequestLineIs400) {
    ServerFixture fx;
    for (const char* raw : {
             "total garbage\r\n\r\n",
             "GET\r\n\r\n",
             "GET /ping\r\n\r\n",            // missing HTTP version
             "GET ping HTTP/1.1\r\n\r\n",    // target missing leading /
             "GET /ping JUNK/1.1\r\n\r\n",   // not an HTTP version
         }) {
        const auto response = http_exchange(fx.server.port(), raw);
        EXPECT_NE(status_line(response).find("400"), std::string::npos)
            << "request: " << raw << " got: " << status_line(response);
    }
}

TEST(HttpServer, UnsupportedMethodIs405) {
    ServerFixture fx;
    for (const char* method : {"DELETE", "PUT", "PATCH", "OPTIONS"}) {
        const auto response = http_exchange(
            fx.server.port(), std::string(method) + " /ping HTTP/1.1\r\n\r\n");
        EXPECT_NE(status_line(response).find("405"), std::string::npos)
            << method;
    }
}

TEST(HttpServer, WrongMethodOnRegisteredPathIs405) {
    ServerFixture fx;
    // /echo exists but only for POST; /ping exists but only for GET.
    EXPECT_NE(status_line(http_exchange(fx.server.port(),
                                   "GET /echo HTTP/1.1\r\n\r\n"))
                  .find("405"),
              std::string::npos);
    EXPECT_NE(status_line(http_exchange(fx.server.port(),
                                   "POST /ping HTTP/1.1\r\n"
                                   "Content-Length: 0\r\n\r\n"))
                  .find("405"),
              std::string::npos);
}

TEST(HttpServer, UnknownPathIs404) {
    ServerFixture fx;
    EXPECT_NE(status_line(http_exchange(fx.server.port(),
                                   "GET /nope HTTP/1.1\r\n\r\n"))
                  .find("404"),
              std::string::npos);
}

TEST(HttpServer, OversizedDeclaredBodyIs413) {
    ServerFixture fx;  // 1 KiB cap
    const auto response = http_exchange(fx.server.port(),
                                   "POST /echo HTTP/1.1\r\n"
                                   "Content-Length: 1000000\r\n\r\n");
    EXPECT_NE(status_line(response).find("413"), std::string::npos);
}

TEST(HttpServer, OversizedHeaderBlockIs413) {
    ServerFixture fx;  // 1 KiB cap
    const std::string padding(4096, 'x');
    const auto response =
        http_exchange(fx.server.port(),
                 "GET /ping HTTP/1.1\r\nX-Padding: " + padding + "\r\n\r\n");
    EXPECT_NE(status_line(response).find("413"), std::string::npos);
}

TEST(HttpServer, UnparseableContentLengthIs400) {
    ServerFixture fx;
    const auto response = http_exchange(fx.server.port(),
                                   "POST /echo HTTP/1.1\r\n"
                                   "Content-Length: banana\r\n\r\n");
    EXPECT_NE(status_line(response).find("400"), std::string::npos);
}

TEST(HttpServer, SlowClientGets408WithoutHanging) {
    ServerFixture fx;  // 200 ms read timeout
    const auto start = std::chrono::steady_clock::now();
    const int fd = connect_loopback(fx.server.port());
    ASSERT_GE(fd, 0);
    // Send half a request line, then just sit there.
    send_all(fd, "GET /pi");
    const std::string response = recv_all(fd);
    ::close(fd);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    EXPECT_NE(status_line(response).find("408"), std::string::npos);
    // The server answered soon after its timeout — it did not block a
    // handler thread indefinitely (generous bound for loaded CI machines).
    EXPECT_LT(elapsed, 5000);
}

TEST(HttpServer, TruncatedBodyGets408) {
    ServerFixture fx;
    const int fd = connect_loopback(fx.server.port());
    ASSERT_GE(fd, 0);
    // Declare 100 bytes, deliver 5, then half-close the write side.
    send_all(fd,
             "POST /echo HTTP/1.1\r\nContent-Length: 100\r\n\r\nhello");
    ::shutdown(fd, SHUT_WR);
    const std::string response = recv_all(fd);
    ::close(fd);
    EXPECT_NE(status_line(response).find("408"), std::string::npos);
}

TEST(HttpServer, HandlerExceptionIs500NotCrash) {
    HttpServer::Options options;
    options.handler_threads = 1;
    HttpServer server(options);
    server.route("GET", "/boom", [](const HttpRequest&) -> HttpResponse {
        throw std::runtime_error("kaput");
    });
    server.start();
    const auto response =
        http_exchange(server.port(), "GET /boom HTTP/1.1\r\n\r\n");
    EXPECT_NE(status_line(response).find("500"), std::string::npos);
    EXPECT_NE(body_of(response).find("kaput"), std::string::npos);
    // The server survives and keeps answering.
    EXPECT_NE(status_line(http_exchange(server.port(), "GET /boom HTTP/1.1\r\n\r\n"))
                  .find("500"),
              std::string::npos);
}

// --- streaming (Transfer-Encoding: chunked) edge cases --------------------
// The fleet plane's live tail (/campaigns/<id>/events?follow=1) rides on
// HttpResponse::stream; these tests pin the chunked framing, the slow-reader
// and disconnect paths, and that none of it disturbs the failure taxonomy.

using testsupport::dechunk;

TEST(HttpServer, StreamedResponseIsChunkedAndComplete) {
    HttpServer server(ServerFixture::tight());
    server.route("GET", "/events", [](const HttpRequest&) {
        HttpResponse r{200, "application/x-ndjson", ""};
        r.stream = [](const ChunkSink& sink) {
            for (int i = 0; i < 3; ++i)
                if (!sink("line " + std::to_string(i) + "\n")) return;
        };
        return r;
    });
    server.start();
    const auto response =
        http_exchange(server.port(), "GET /events HTTP/1.1\r\n\r\n");
    EXPECT_NE(status_line(response).find("200"), std::string::npos);
    EXPECT_NE(response.find("Transfer-Encoding: chunked"), std::string::npos);
    std::string body;
    bool terminated = false;
    ASSERT_TRUE(dechunk(body_of(response), body, terminated));
    EXPECT_EQ(body, "line 0\nline 1\nline 2\n");
    EXPECT_TRUE(terminated);
}

TEST(HttpServer, SlowReaderReceivesFullStream) {
    // 64 chunks x 4 KiB — enough to outrun loopback socket buffers, so the
    // server actually blocks on the slow reader and must keep the chunk
    // framing intact across partial writes.
    const std::string chunk(4096, 'z');
    HttpServer server(ServerFixture::tight());
    server.route("GET", "/big", [&chunk](const HttpRequest&) {
        HttpResponse r;
        r.stream = [&chunk](const ChunkSink& sink) {
            for (int i = 0; i < 64; ++i)
                if (!sink(chunk)) return;
        };
        return r;
    });
    server.start();
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    send_all(fd, "GET /big HTTP/1.1\r\n\r\n");
    std::string response;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::close(fd);
    std::string body;
    bool terminated = false;
    ASSERT_TRUE(dechunk(body_of(response), body, terminated));
    EXPECT_EQ(body.size(), chunk.size() * 64);
    EXPECT_TRUE(terminated);
}

TEST(HttpServer, DisconnectMidStreamStopsSinkAndServerSurvives) {
    std::atomic<bool> sink_refused{false};
    HttpServer server(ServerFixture::tight());
    server.route("GET", "/ping", [](const HttpRequest&) {
        return HttpResponse{200, "text/plain", "pong\n"};
    });
    server.route("GET", "/forever", [&sink_refused](const HttpRequest&) {
        HttpResponse r;
        r.stream = [&sink_refused](const ChunkSink& sink) {
            const std::string chunk(4096, 'y');
            // An endless follow stream: only the sink saying "client gone"
            // (or server stop) may end it.
            while (sink(chunk)) {
            }
            sink_refused = true;
        };
        return r;
    });
    server.start();
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    send_all(fd, "GET /forever HTTP/1.1\r\n\r\n");
    char buf[4096];
    ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0);  // stream is flowing
    ::close(fd);  // hang up mid-chunk
    // The handler must notice via the sink's return value, not hang.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!sink_refused && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(sink_refused.load());
    // The handler thread is free again and the taxonomy is intact.
    EXPECT_NE(status_line(http_exchange(server.port(),
                                        "GET /ping HTTP/1.1\r\n\r\n"))
                  .find("200"),
              std::string::npos);
    EXPECT_NE(status_line(http_exchange(server.port(),
                                        "GET /nope HTTP/1.1\r\n\r\n"))
                  .find("404"),
              std::string::npos);
}

TEST(HttpServer, FollowOnCompletedSourceDrainsBacklogAndCloses) {
    // Mirrors ?follow=1 against a campaign that already finished: the
    // stream writes the backlog, sees the source is done, and returns —
    // the client gets an orderly end-of-stream, not an open socket.
    HttpServer server(ServerFixture::tight());
    server.route("GET", "/done-events", [](const HttpRequest& req) {
        EXPECT_TRUE(req.query_flag("follow"));
        HttpResponse r{200, "application/x-ndjson", ""};
        r.stream = [](const ChunkSink& sink) {
            sink("backlog 1\n");
            sink("backlog 2\n");
            // source already completed: nothing to wait for
        };
        return r;
    });
    server.start();
    const auto start = std::chrono::steady_clock::now();
    const auto response = http_exchange(
        server.port(), "GET /done-events?follow=1 HTTP/1.1\r\n\r\n");
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    std::string body;
    bool terminated = false;
    ASSERT_TRUE(dechunk(body_of(response), body, terminated));
    EXPECT_EQ(body, "backlog 1\nbacklog 2\n");
    EXPECT_TRUE(terminated);
    EXPECT_LT(elapsed, 5000);  // closed promptly, no dangling follow
}

TEST(HttpServer, HeadOnStreamRouteAnswersHeadersOnly) {
    HttpServer server(ServerFixture::tight());
    server.route("GET", "/events", [](const HttpRequest&) {
        HttpResponse r{200, "application/x-ndjson", ""};
        r.stream = [](const ChunkSink& sink) { sink("never sent\n"); };
        return r;
    });
    server.start();
    const auto response =
        http_exchange(server.port(), "HEAD /events HTTP/1.1\r\n\r\n");
    EXPECT_NE(status_line(response).find("200"), std::string::npos);
    EXPECT_TRUE(body_of(response).empty());
}

TEST(HttpServer, SlowClientsDoNotStarveOthers) {
    ServerFixture fx;  // 2 handler threads, 200 ms timeout
    // Park one handler thread on a stalled client...
    const int stalled = connect_loopback(fx.server.port());
    ASSERT_GE(stalled, 0);
    send_all(stalled, "GET /");
    // ...and a healthy request must still be answered promptly by the other.
    const auto response =
        http_exchange(fx.server.port(), "GET /ping HTTP/1.1\r\n\r\n");
    EXPECT_NE(status_line(response).find("200"), std::string::npos);
    ::close(stalled);
}

}  // namespace
}  // namespace statfi::telemetry
