#pragma once
// HttpServer: a dependency-free, multi-route HTTP/1.1 layer for the
// observatory and the StatFI service daemon (DESIGN.md §5.13, decision 16).
//
// Scope is deliberately small — this is a loopback control/scrape surface,
// not a web framework: bounded request size, one request per connection
// (Connection: close), GET/HEAD/POST only, exact-match and prefix routes,
// a fixed handler pool, and a read timeout so a stalled or malicious
// client can never hang a handler thread. The server binds 127.0.0.1 only
// — fleets are reached through a tunnel or sidecar, never exposed raw.
//
// Failure taxonomy (each with a distinct status, tested in
// tests/service/http_server_test.cpp):
//   malformed request line            -> 400
//   method outside GET/HEAD/POST      -> 405
//   method not registered for a path  -> 405
//   unknown path                      -> 404
//   read timeout / truncated request  -> 408
//   request larger than the cap       -> 413
//
// A campaign's live observatory (`--serve-status`) is add_campaign_routes:
// four GET routes (/status /metrics /trace /) on a plain HttpServer,
// registered the way the service daemon registers its own.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace statfi::telemetry {

class Session;

struct HttpRequest {
    std::string method;  ///< "GET" | "HEAD" | "POST"
    std::string target;  ///< path only (query string stripped)
    std::string query;   ///< raw query string after '?' (no decoding)
    std::string body;    ///< POST payload (empty for GET/HEAD)

    /// True when the query string contains @p key as `key` or `key=value`
    /// with a value other than "0". No percent-decoding — fleet query
    /// parameters are plain tokens like follow=1.
    [[nodiscard]] bool query_flag(std::string_view key) const;
};

/// Writes one body chunk to the client. Returns false once the client is
/// gone (disconnect) or the server is stopping — the stream function must
/// stop producing then.
using ChunkSink = std::function<bool(std::string_view chunk)>;
/// A streaming body producer: called once on the handler thread after the
/// response headers go out; every sink() call becomes one HTTP/1.1 chunk.
using StreamFn = std::function<void(const ChunkSink&)>;

struct HttpResponse {
    HttpResponse() = default;
    HttpResponse(int s, std::string type, std::string content)
        : status(s), content_type(std::move(type)), body(std::move(content)) {}

    int status = 200;
    std::string content_type = "text/plain";
    std::string body;
    /// When set (GET only), the response is sent Transfer-Encoding: chunked
    /// and @p stream produces the body incrementally — the long-poll path
    /// behind /campaigns/<id>/events?follow=1. `body` is ignored then
    /// (HEAD still answers headers-only).
    StreamFn stream;
};

/// A route handler. Runs on a handler-pool thread; must be thread-safe
/// against concurrent invocations and against the state it reads/writes.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
public:
    struct Options {
        std::uint16_t port = 0;      ///< 0 picks an ephemeral port
        std::size_t handler_threads = 2;
        /// Hard cap on one request (request line + headers + body). Anything
        /// larger is answered 413 without reading the rest.
        std::size_t max_request_bytes = 1 << 20;
        /// Patience for a slow client, per poll; a request that has not
        /// completed within this window is answered 408 and closed.
        int read_timeout_ms = 2000;
    };

    /// Bind 127.0.0.1:port. Routes are registered afterwards; call start()
    /// to begin serving. @throws std::runtime_error when the socket cannot
    /// be bound.
    explicit HttpServer(const Options& options);
    ~HttpServer();

    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /// Register an exact-match route, e.g. ("GET", "/status", ...). HEAD is
    /// served by GET routes automatically (body stripped). Register before
    /// start(); not thread-safe afterwards.
    void route(std::string method, std::string path, HttpHandler handler);

    /// Register a prefix route, e.g. ("GET", "/campaigns/", ...). Exact
    /// routes win; the longest matching prefix is tried next.
    void route_prefix(std::string method, std::string prefix,
                      HttpHandler handler);

    /// Start the accept loop and the handler pool.
    void start();

    /// Stop accepting, drain queued connections, join every thread
    /// (idempotent; also run by the destructor).
    void stop();

    /// The port actually bound (resolves port 0).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Requests answered so far (any status).
    [[nodiscard]] std::uint64_t requests_served() const noexcept {
        return requests_.load(std::memory_order_relaxed);
    }

private:
    struct Route {
        std::string method;
        std::string key;  ///< path (exact) or prefix
        bool prefix = false;
        HttpHandler handler;
    };

    void accept_loop();
    void handler_loop();
    void handle(int client_fd);
    [[nodiscard]] HttpResponse dispatch(const HttpRequest& request) const;

    Options options_;
    std::vector<Route> routes_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::thread accept_thread_;
    std::vector<std::thread> handlers_;
    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<int> pending_;  ///< accepted fds awaiting a handler thread
};

/// Register the read-only single-campaign observatory on @p http:
///   /metrics  Prometheus exposition of the session's registry
///   /status   one JSON document folded from the session's event log file
///             (read incrementally, through report::fold_event) plus the
///             live statfi_faults_total counter
///   /trace    the Chrome trace so far (404 when tracing is off)
///   /         a text index
/// The session is borrowed and must outlive the server. Everything served
/// is read from the log file and registry snapshots, so it cannot perturb
/// campaign outcomes.
/// @throws std::invalid_argument when the session has no file-backed event
/// log — /status is a view of that file.
void add_campaign_routes(HttpServer& http, Session& session);

}  // namespace statfi::telemetry
