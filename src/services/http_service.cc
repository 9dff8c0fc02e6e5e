#include "services/http_service.h"

#include <deque>

#include "common/log.h"

namespace rddr::services {

struct HttpServer::Conn {
  sim::ConnPtr conn;
  http::RequestParser parser;
  std::deque<http::Request> pending;
  bool busy = false;

  explicit Conn(http::ParserOptions opts) : parser(opts) {}
};

namespace {
/// Container footprint charged while running.
constexpr int64_t kBaseMemoryBytes = 32LL << 20;
}  // namespace

HttpServer::HttpServer(sim::Network& net, sim::Host& host, Options opts)
    : net_(net), host_(host), opts_(std::move(opts)) {
  host_.charge_memory(kBaseMemoryBytes);
  net_.listen(opts_.address, [this](sim::ConnPtr c) { on_accept(std::move(c)); });
}

HttpServer::~HttpServer() {
  net_.unlisten(opts_.address);
  host_.release_memory(kBaseMemoryBytes);
}

void HttpServer::on_accept(sim::ConnPtr conn) {
  auto c = std::make_shared<Conn>(opts_.parser);
  c->conn = std::move(conn);
  c->conn->set_on_data([this, c](ByteView data) {
    c->parser.feed(data);
    if (c->parser.failed()) {
      // Framing failure: answer 400 and close (the hardened-proxy path).
      auto resp = http::make_response(400, "<h1>400 Bad Request</h1>");
      resp.headers.set("Connection", "close");
      c->conn->send(resp.to_bytes());
      c->conn->close();
      return;
    }
    for (auto& req : c->parser.take()) c->pending.push_back(std::move(req));
    pump(c);
  });
}

void HttpServer::pump(const std::shared_ptr<Conn>& c) {
  if (c->busy || c->pending.empty()) return;
  if (!c->conn->is_open()) {
    c->pending.clear();
    return;
  }
  c->busy = true;
  auto req = std::make_shared<http::Request>(std::move(c->pending.front()));
  c->pending.pop_front();
  host_.run_task(opts_.cpu_per_request, [this, c, req] {
    // The handler runs as a deferred host task, outside the connection
    // handler's ambient flow scope — re-install it so onward dials the
    // handler makes derive their execution index from this request's
    // inbound flow (netsim/network.h).
    sim::FlowScope flow_scope(c->conn.get());
    ++requests_served_;
    auto respond = [this, c](http::Response resp) {
      if (c->conn->is_open()) c->conn->send(SharedBytes(resp.to_bytes()));
      c->busy = false;
      pump(c);
    };
    if (!handler_) {
      respond(http::make_response(503, "<h1>no handler installed</h1>"));
      return;
    }
    handler_(*req, respond);
  });
}

HttpClient::HttpClient(sim::Network& net, std::string source_name)
    : net_(net), source_(std::move(source_name)) {}

void HttpClient::request(const std::string& address, http::Request req,
                         Callback cb) {
  auto conn = net_.connect(address, {.source = source_});
  if (!conn) {
    cb(-1, nullptr);
    return;
  }
  auto parser = std::make_shared<http::ResponseParser>();
  auto done = std::make_shared<bool>(false);
  auto cbp = std::make_shared<Callback>(std::move(cb));
  conn->set_on_data([conn, parser, done, cbp](ByteView data) {
    if (*done) return;
    parser->feed(data);
    if (parser->failed()) {
      *done = true;
      (*cbp)(-1, nullptr);
      conn->close();
      return;
    }
    auto msgs = parser->take();
    if (!msgs.empty()) {
      *done = true;
      (*cbp)(msgs[0].status, &msgs[0]);
      conn->close();
    }
  });
  conn->set_on_close([done, cbp] {
    if (!*done) {
      *done = true;
      (*cbp)(-1, nullptr);
    }
  });
  conn->send(SharedBytes(req.to_bytes()));
}

void HttpClient::get(const std::string& address, const std::string& target,
                     Callback cb) {
  http::Request req;
  req.method = "GET";
  req.target = target;
  req.headers.set("Host", address);
  request(address, std::move(req), std::move(cb));
}

}  // namespace rddr::services
