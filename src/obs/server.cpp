#include "obs/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace parda::obs {

namespace {

constexpr int kPollTimeoutMs = 100;
constexpr std::size_t kMaxHeadBytes = 8 * 1024;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // client went away; nothing to do for a scrape endpoint
    }
    off += static_cast<std::size_t>(n);
  }
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Case-insensitive header lookup over the raw request head; returns the
/// trimmed value or nullopt.
std::optional<std::string> find_header(std::string_view head,
                                       std::string_view name) {
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    const std::size_t start = pos + 2;
    const std::size_t end = head.find("\r\n", start);
    const std::string_view line = head.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        iequals(line.substr(0, colon), name)) {
      return std::string(trim(line.substr(colon + 1)));
    }
    pos = end;
  }
  return std::nullopt;
}

}  // namespace

TelemetryServer::TelemetryServer(std::uint16_t port, HealthFn health,
                                 int accept_threads)
    : health_(std::move(health)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ServerBindError(port, "telemetry: socket() failed: " +
                                    std::string(std::strerror(errno)));
  }

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ServerBindError(
        port, std::string("telemetry: cannot listen on 127.0.0.1:") +
                  std::to_string(port) + ": " + std::strerror(err));
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }

  // Non-blocking accept: pool threads race for each connection after a
  // poll wakeup; the losers get EAGAIN and go back to polling instead of
  // parking inside accept() where stop() could not reach them.
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);

  // The accept pool: every thread polls and accepts on the shared listen
  // socket, so a request that is slow to serve (a blocking ingest POST, a
  // dribbling client) occupies one thread while scrapes keep flowing
  // through the others.
  if (accept_threads < 1) accept_threads = 1;
  threads_.reserve(static_cast<std::size_t>(accept_threads));
  for (int i = 0; i < accept_threads; ++i) {
    threads_.emplace_back([this] { serve_loop(); });
  }
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::stop() {
  if (stop_.exchange(true)) {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    return;
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TelemetryServer::set_handler(RouteFn handler) {
  const std::lock_guard<std::mutex> lock(handler_mu_);
  handler_ = std::move(handler);
}

void TelemetryServer::serve_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollTimeoutMs);
    if (ready <= 0) continue;  // timeout (re-check stop) or EINTR
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    serve_one(client);
    ::close(client);
  }
}

void TelemetryServer::serve_one(int client_fd) const {
  // A stalled or deliberately slow client must not wedge the loop (and
  // with it, stop()): every recv is bounded by this timeout, so the worst
  // a hostile client can cost is a couple of seconds of serial service.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));

  // Read until the end of the request head.
  std::string req;
  char buf[4096];
  std::size_t head_end = std::string::npos;
  while (req.size() < kMaxHeadBytes + kMaxBodyBytes) {
    head_end = req.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (req.size() >= kMaxHeadBytes) break;
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }

  Response resp;
  Request parsed;
  bool dispatch = false;

  // Request line: METHOD SP PATH[?QUERY] SP VERSION.
  const std::vector<std::string_view> words =
      split(std::string_view(req).substr(0, req.find("\r\n")), ' ');
  if (head_end == std::string::npos || words.size() < 3) {
    resp = Response{400, "text/plain", "bad request line\n"};
  } else {
    parsed.method = std::string(words[0]);
    parsed.path = std::string(words[1].substr(0, words[1].find('?')));

    if (parsed.method != "GET" && parsed.method != "POST") {
      resp = Response{405, "text/plain", "only GET and POST are supported\n"};
    } else {
      const std::string_view head = std::string_view(req).substr(0, head_end);
      if (const auto ct = find_header(head, "Content-Type")) {
        parsed.content_type = *ct;
      }
      const std::optional<std::string> cl = find_header(head, "Content-Length");
      const std::optional<std::uint64_t> length =
          cl ? parse_u64(*cl) : std::optional<std::uint64_t>(0);
      const std::uint64_t content_length = length.value_or(0);
      if (!length) {
        resp = Response{400, "text/plain", "malformed Content-Length\n"};
      } else if (parsed.method == "POST" && !cl &&
                 find_header(head, "Transfer-Encoding").has_value()) {
        // A POST without Content-Length is an empty-body request (curl -X
        // POST); only a chunked body, which this server does not speak, is
        // answered 411.
        resp = Response{411, "text/plain",
                        "chunked bodies are not supported; send "
                        "Content-Length\n"};
      } else if (content_length > kMaxBodyBytes) {
        resp = Response{413, "text/plain",
                        "body exceeds " + std::to_string(kMaxBodyBytes) +
                            " bytes\n"};
      } else {
        std::string body = req.substr(head_end + 4);
        while (body.size() < content_length) {
          const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) break;
          body.append(buf, static_cast<std::size_t>(n));
        }
        if (body.size() < content_length) {
          resp = Response{400, "text/plain", "truncated request body\n"};
        } else {
          body.resize(content_length);
          parsed.body = std::move(body);
          dispatch = true;
        }
      }
    }
  }

  if (dispatch) resp = handle(parsed);

  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    status_text(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  write_all(client_fd, out);
  ::shutdown(client_fd, SHUT_WR);
}

TelemetryServer::Response TelemetryServer::handle(
    const Request& request) const {
  RouteFn handler;
  {
    // Copy, then invoke unlocked: a handler that blocks on the analysis
    // pool must not hold the dispatch lock.
    std::lock_guard<std::mutex> lock(handler_mu_);
    handler = handler_;
  }
  if (handler) {
    try {
      if (std::optional<Response> r = handler(request)) return *r;
    } catch (const std::exception& e) {
      return {500, "text/plain",
              std::string("handler error: ") + e.what() + "\n"};
    }
  }

  if (request.method != "GET") {
    return {405, "text/plain", "built-in endpoints are GET only\n"};
  }
  const std::string& path = request.path;
  if (path == "/metrics") {
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            to_prometheus()};
  }
  if (path == "/metrics.json") {
    // Hub-aware: in a distributed run rank 0's snapshot grows a
    // "processes" array with every remote process's telemetry; while the
    // hub is empty this is Registry::to_json() verbatim.
    return {200, "application/json",
            hub().merged_metrics_json(registry())};
  }
  if (path == "/spans") {
    return {200, "application/json", hub().merged_chrome_json(tracer())};
  }
  if (path == "/healthz") {
    Health h;
    if (health_) h = health_();
    json::Writer w;
    w.begin_object();
    w.key("ok").value(h.ok);
    w.key("workers").value(h.workers);
    w.key("jobs").value(h.jobs);
    w.key("watchdog").value(h.watchdog);
    if (!h.detail.empty()) w.key("detail").value(h.detail);
    w.end_object();
    return {200, "application/json", w.take() + "\n"};
  }
  return {404, "text/plain",
          "unknown path; try /metrics /metrics.json /spans /healthz\n"};
}

TelemetryServer::Response TelemetryServer::handle(
    std::string_view path) const {
  Request r;
  r.method = "GET";
  r.path = std::string(path);
  return handle(r);
}

}  // namespace parda::obs
