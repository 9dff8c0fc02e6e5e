#include "services/tcp_proxy.h"

namespace rddr::services {

namespace {
/// CPU charged per chunk relayed, plus per byte (a light L4 proxy).
constexpr double kCpuPerChunk = 3e-6;
constexpr double kCpuPerByte = 1e-9;
constexpr int64_t kBaseMemoryBytes = 16LL << 20;
}  // namespace

TcpProxy::TcpProxy(sim::Network& net, sim::Host& host, Options opts)
    : net_(net), host_(host), opts_(std::move(opts)) {
  host_.charge_memory(kBaseMemoryBytes);
  net_.listen(opts_.address, [this](sim::ConnPtr c) { on_accept(std::move(c)); });
}

TcpProxy::~TcpProxy() {
  net_.unlisten(opts_.address);
  host_.release_memory(kBaseMemoryBytes);
}

void TcpProxy::on_accept(sim::ConnPtr client) {
  auto backend = net_.connect(opts_.backend_address,
                              {.source = opts_.name,
                               .flow = {.label = client->flow().label}});
  if (!backend) {
    client->close();
    return;
  }
  auto relay = [this](sim::ConnPtr to) {
    return [this, to](ByteView data) {
      bytes_relayed_ += data.size();
      // Charge relay CPU; forward immediately (latency effect of the hop
      // itself is carried by the extra network link).
      host_.run_task(kCpuPerChunk +
                         static_cast<double>(data.size()) * kCpuPerByte,
                     nullptr);
      if (to->is_open()) to->send(data);
    };
  };
  client->set_on_data(relay(backend));
  backend->set_on_data(relay(client));
  client->set_on_close([backend] { backend->close(); });
  backend->set_on_close([client] { client->close(); });
}

}  // namespace rddr::services
