#include "telemetry/http.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "report/json.hpp"
#include "report/observatory.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/session.hpp"

namespace statfi::telemetry {

namespace {

const char* reason_of(int status) {
    switch (status) {
        case 200: return "OK";
        case 202: return "Accepted";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 408: return "Request Timeout";
        case 409: return "Conflict";
        case 413: return "Payload Too Large";
        case 500: return "Internal Server Error";
        case 503: return "Service Unavailable";
        default: return "Response";
    }
}

std::string serialize(const HttpResponse& response, bool head_only) {
    std::ostringstream out;
    out << "HTTP/1.1 " << response.status << " " << reason_of(response.status)
        << "\r\n"
        << "Content-Type: " << response.content_type << "\r\n"
        << "Content-Length: " << response.body.size() << "\r\n"
        << "Connection: close\r\n\r\n";
    if (!head_only) out << response.body;
    return out.str();
}

HttpResponse plain(int status, std::string body) {
    return HttpResponse{status, "text/plain", std::move(body)};
}

/// Case-insensitive Content-Length lookup in a raw header block. Returns
/// -1 when absent, -2 when unparseable.
long long content_length_of(std::string_view headers) {
    std::size_t pos = 0;
    while (pos < headers.size()) {
        std::size_t eol = headers.find("\r\n", pos);
        if (eol == std::string_view::npos) eol = headers.size();
        const std::string_view line = headers.substr(pos, eol - pos);
        const std::size_t colon = line.find(':');
        if (colon != std::string_view::npos) {
            std::string name(line.substr(0, colon));
            std::transform(name.begin(), name.end(), name.begin(),
                           [](unsigned char c) { return std::tolower(c); });
            if (name == "content-length") {
                const std::string value(line.substr(colon + 1));
                try {
                    const long long n = std::stoll(value);
                    return n < 0 ? -2 : n;
                } catch (const std::exception&) {
                    return -2;
                }
            }
        }
        pos = eol + 2;
    }
    return -1;
}

}  // namespace

bool HttpRequest::query_flag(std::string_view key) const {
    std::size_t pos = 0;
    while (pos <= query.size()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos) amp = query.size();
        const std::string_view param =
            std::string_view(query).substr(pos, amp - pos);
        const std::size_t eq = param.find('=');
        const std::string_view name =
            eq == std::string_view::npos ? param : param.substr(0, eq);
        if (name == key)
            return eq == std::string_view::npos || param.substr(eq + 1) != "0";
        pos = amp + 1;
    }
    return false;
}

HttpServer::HttpServer(const Options& options) : options_(options) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        throw std::runtime_error(std::string("http server: socket: ") +
                                 std::strerror(errno));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
        const int err = errno;
        ::close(listen_fd_);
        throw std::runtime_error(
            "http server: cannot bind 127.0.0.1:" +
            std::to_string(options.port) + ": " + std::strerror(err));
    }
    if (::listen(listen_fd_, 64) < 0) {
        const int err = errno;
        ::close(listen_fd_);
        throw std::runtime_error(std::string("http server: listen: ") +
                                 std::strerror(err));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string method, std::string path,
                       HttpHandler handler) {
    routes_.push_back(
        Route{std::move(method), std::move(path), false, std::move(handler)});
}

void HttpServer::route_prefix(std::string method, std::string prefix,
                              HttpHandler handler) {
    routes_.push_back(
        Route{std::move(method), std::move(prefix), true, std::move(handler)});
}

void HttpServer::start() {
    if (accept_thread_.joinable()) return;  // already started
    const std::size_t pool = std::max<std::size_t>(1, options_.handler_threads);
    handlers_.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t)
        handlers_.emplace_back(&HttpServer::handler_loop, this);
    accept_thread_ = std::thread(&HttpServer::accept_loop, this);
}

void HttpServer::stop() {
    {
        // Set under the queue lock: a handler between its predicate check
        // and its wait would otherwise miss the notify below and sleep
        // forever, hanging the joins. A second stop still joins anything a
        // racing first stop missed.
        std::lock_guard<std::mutex> lock(queue_mutex_);
        stop_.store(true, std::memory_order_relaxed);
    }
    queue_cv_.notify_all();
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& t : handlers_)
        if (t.joinable()) t.join();
    handlers_.clear();
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        for (const int fd : pending_) ::close(fd);
        pending_.clear();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void HttpServer::accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        // 100ms poll tick bounds the shutdown latency without a self-pipe.
        const int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0) continue;
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) continue;
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            pending_.push_back(client);
        }
        queue_cv_.notify_one();
    }
}

void HttpServer::handler_loop() {
    for (;;) {
        int client = -1;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [&] {
                return stop_.load(std::memory_order_relaxed) ||
                       !pending_.empty();
            });
            if (pending_.empty()) return;  // stopping and drained
            client = pending_.front();
            pending_.pop_front();
        }
        handle(client);
        ::close(client);
    }
}

void HttpServer::handle(int client_fd) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.read_timeout_ms);
    const auto send_all = [&](const char* bytes, std::size_t size) -> bool {
        std::size_t sent = 0;
        while (sent < size) {
            const ssize_t n = ::send(client_fd, bytes + sent, size - sent,
                                     MSG_NOSIGNAL);
            if (n <= 0) return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    };
    const auto answer = [&](const HttpResponse& response, bool head_only) {
        requests_.fetch_add(1, std::memory_order_relaxed);
        if (response.stream && !head_only) {
            // Streaming body: headers out first, then one HTTP/1.1 chunk
            // per sink() call. The sink reports the client's liveness back
            // so the producer stops on disconnect or server shutdown.
            std::ostringstream header;
            header << "HTTP/1.1 " << response.status << " "
                   << reason_of(response.status) << "\r\n"
                   << "Content-Type: " << response.content_type << "\r\n"
                   << "Transfer-Encoding: chunked\r\n"
                   << "Connection: close\r\n\r\n";
            const std::string head_wire = header.str();
            bool alive = send_all(head_wire.data(), head_wire.size());
            const ChunkSink sink = [&](std::string_view chunk) -> bool {
                if (stop_.load(std::memory_order_relaxed)) alive = false;
                if (!alive || chunk.empty()) return alive;
                char frame[32];
                const int frame_len = std::snprintf(
                    frame, sizeof(frame), "%zx\r\n", chunk.size());
                alive = send_all(frame, static_cast<std::size_t>(frame_len)) &&
                        send_all(chunk.data(), chunk.size()) &&
                        send_all("\r\n", 2);
                return alive;
            };
            response.stream(sink);
            if (alive && !stop_.load(std::memory_order_relaxed))
                send_all("0\r\n\r\n", 5);
            return;
        }
        const std::string wire = serialize(response, head_only);
        send_all(wire.data(), wire.size());
    };
    // Reads are bounded three ways: total size (413), wall clock (408), and
    // connection close (408 for a truncated request).
    std::string data;
    const auto read_more = [&]() -> int {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        if (remaining <= 0) return 0;
        pollfd pfd{client_fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(remaining)) <= 0) return 0;
        char buf[4096];
        const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
        if (n <= 0) return 0;
        data.append(buf, static_cast<std::size_t>(n));
        return 1;
    };

    // Phase 1: the header block.
    std::size_t header_end;
    while ((header_end = data.find("\r\n\r\n")) == std::string::npos) {
        if (data.size() > options_.max_request_bytes)
            return answer(plain(413, "request header exceeds the limit\n"),
                          false);
        if (!read_more())
            return answer(plain(408, "timed out reading the request\n"),
                          false);
    }

    // Request line: METHOD SP TARGET SP HTTP/x.
    const std::size_t line_end = data.find("\r\n");
    std::istringstream line(data.substr(0, line_end));
    HttpRequest request;
    std::string http_version;
    line >> request.method >> request.target >> http_version;
    if (request.method.empty() || request.target.empty() ||
        request.target[0] != '/' || http_version.rfind("HTTP/", 0) != 0)
        return answer(plain(400, "malformed request line\n"), false);
    const std::size_t query = request.target.find('?');
    if (query != std::string::npos) {
        request.query = request.target.substr(query + 1);
        request.target.resize(query);  // routes match on the bare path
    }

    if (request.method != "GET" && request.method != "HEAD" &&
        request.method != "POST")
        return answer(plain(405, "supported methods: GET, HEAD, POST\n"),
                      false);

    // Phase 2: the body (POST only; Content-Length framed).
    const long long declared = content_length_of(
        std::string_view(data).substr(line_end + 2, header_end - line_end - 2));
    if (declared == -2)
        return answer(plain(400, "unparseable Content-Length\n"), false);
    if (request.method == "POST") {
        const std::size_t body_begin = header_end + 4;
        const std::size_t body_len =
            declared < 0 ? 0 : static_cast<std::size_t>(declared);
        if (body_begin + body_len > options_.max_request_bytes)
            return answer(plain(413, "request body exceeds the limit\n"),
                          false);
        while (data.size() < body_begin + body_len) {
            if (!read_more())
                return answer(plain(408, "timed out reading the body\n"),
                              false);
        }
        request.body = data.substr(body_begin, body_len);
    }

    const bool head = request.method == "HEAD";
    if (head) request.method = "GET";  // HEAD is GET minus the body
    answer(dispatch(request), head);
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) const {
    const Route* best_prefix = nullptr;
    bool path_exists = false;
    for (const Route& r : routes_) {
        const bool path_match =
            r.prefix ? request.target.rfind(r.key, 0) == 0
                     : request.target == r.key;
        if (!path_match) continue;
        path_exists = true;
        if (r.method != request.method) continue;
        if (!r.prefix) {
            try {
                return r.handler(request);
            } catch (const std::exception& e) {
                return plain(500, std::string("handler error: ") + e.what() +
                                      "\n");
            }
        }
        if (!best_prefix || r.key.size() > best_prefix->key.size())
            best_prefix = &r;
    }
    if (best_prefix) {
        try {
            return best_prefix->handler(request);
        } catch (const std::exception& e) {
            return plain(500,
                         std::string("handler error: ") + e.what() + "\n");
        }
    }
    if (path_exists)
        return plain(405, "method not allowed for this endpoint\n");
    return plain(404, "unknown endpoint\n");
}

// --- the campaign observatory's four GET routes ---------------------------

namespace {

/// The /status document: where the campaign is, read from the report fold
/// of its event log (header, plan, phases, shard, end) and the live
/// statfi_faults_total counter. @p now is the log's clock (seconds since
/// its campaign_header), so elapsed time and the event timestamps agree.
std::string status_json(const report::ObservatoryModel& m,
                        const MetricsSnapshot& metrics, double now) {
    const MetricValue* faults = metrics.find("statfi_faults_total");
    const std::uint64_t classified = faults ? faults->counter : 0;
    const std::uint64_t done = m.resumed + classified;
    const auto open_shard =
        std::find_if(m.shards.rbegin(), m.shards.rend(),
                     [](const auto& shard) { return !shard.ended; });
    const std::uint64_t total = open_shard != m.shards.rend()
                                    ? open_shard->range_end -
                                          open_shard->range_begin
                                    : m.planned;
    const double elapsed = m.finished ? m.ts : now;
    const double rate =
        elapsed > 0.0 ? static_cast<double>(classified) / elapsed : 0.0;

    std::ostringstream out;
    report::JsonWriter json(out, 0);
    json.begin_object();
    json.field("state", !m.finished ? "running"
                        : m.complete ? "complete"
                                     : "interrupted");
    json.field("phase", m.open_phases.empty() ? std::string("idle")
                                              : m.open_phases.back());
    json.key("phase_stack").begin_array();
    for (const std::string& phase : m.open_phases) json.value(phase);
    json.end_array();
    json.key("campaign").begin_object();
    json.field("command", m.command);
    json.field("model", m.model);
    if (!m.approach.empty()) json.field("approach", m.approach);
    if (!m.dtype.empty()) json.field("dtype", m.dtype);
    if (!m.policy.empty()) json.field("policy", m.policy);
    json.field("seed", m.seed);
    if (m.universe) json.field("universe", m.universe);
    if (m.planned) json.field("planned", m.planned);
    if (m.strata_planned) json.field("strata", m.strata_planned);
    if (!m.shards.empty()) json.field("shard", m.shards.back().shard);
    json.end_object();
    json.key("progress").begin_object();
    json.field("done", done);
    json.field("total", total);
    json.field("fraction", total ? static_cast<double>(done) /
                                       static_cast<double>(total)
                                 : 0.0);
    json.field("elapsed_seconds", elapsed);
    json.field("faults_per_second", rate);
    json.field("eta_seconds",
               rate > 0.0 && done < total
                   ? static_cast<double>(total - done) / rate
                   : 0.0);
    json.end_object();
    json.end_object();
    json.finish();
    return out.str();
}

}  // namespace

void add_campaign_routes(HttpServer& http, Session& session) {
    const EventLog* log = session.events();
    if (!log || log->path().empty())
        throw std::invalid_argument(
            "campaign routes: /status folds the session's event log file, "
            "and none is open");
    http.route("GET", "/metrics", [&session](const HttpRequest&) {
        std::ostringstream body;
        write_prometheus(body, session.metrics().snapshot(),
                         session.perf_phases());
        return HttpResponse{200, "text/plain; version=0.0.4", body.str()};
    });
    // The fold continues where the previous request stopped: only the
    // complete lines past `offset` are parsed, so a poll costs the events
    // written since the last one.
    struct Fold {
        std::mutex mutex;
        std::uint64_t offset = 0;
        report::ObservatoryModel model;
    };
    const auto fold = std::make_shared<Fold>();
    http.route("GET", "/status", [&session, log, fold](const HttpRequest&) {
        std::lock_guard<std::mutex> lock(fold->mutex);
        std::string fresh;
        if (io::read_from(log->path(), fold->offset, fresh)) {
            fresh.resize(fresh.rfind('\n') + 1);  // npos + 1 == 0: none yet
            for (const report::JsonValue& event :
                 report::parse_json_lines(fresh))
                report::fold_event(fold->model, event);
            fold->offset += fresh.size();
        }
        return HttpResponse{
            200, "application/json",
            status_json(fold->model, session.metrics().snapshot(),
                        log->seconds())};
    });
    http.route("GET", "/trace", [&session](const HttpRequest&) {
        const TraceRecorder* trace = session.trace();
        if (!trace)
            return HttpResponse{404, "text/plain",
                                "tracing disabled on this session\n"};
        std::ostringstream body;
        trace->write_chrome_trace(body);
        return HttpResponse{200, "application/json", body.str()};
    });
    http.route("GET", "/", [](const HttpRequest&) {
        return HttpResponse{200, "text/plain",
                            "statfi campaign observatory\n"
                            "  /metrics  Prometheus exposition\n"
                            "  /status   JSON campaign snapshot\n"
                            "  /trace    Chrome trace of phases\n"};
    });
}

}  // namespace statfi::telemetry
