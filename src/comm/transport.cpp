#include "comm/transport.h"

#include <stdexcept>

#include "comm/client_runtime.h"
#include "support/serialize.h"

namespace fed {

ExchangeRecord InProcessTransport::exchange(const ModelBroadcast& broadcast,
                                            const ClientRuntime& client) const {
  ExchangeRecord record;
  record.bytes_down = broadcast_wire_size(broadcast);
  record.update = client.handle(broadcast);
  record.bytes_up = update_wire_size(record.update);
  return record;
}

ExchangeRecord SerializedTransport::exchange(const ModelBroadcast& broadcast,
                                             const ClientRuntime& client) const {
  ExchangeRecord record;
  OwnedBroadcast received;
  {  // the encoded frame is freed before the solve
    const WireBuffer down = encode_broadcast(broadcast);
    record.bytes_down = down.size();
    received = decode_broadcast(down);
  }
  ClientUpdate update = client.handle(received.view());
  const WireBuffer up = encode_update(update);
  record.bytes_up = up.size();
  record.update = decode_update(up);
  return record;
}

std::string to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess: return "inprocess";
    case TransportKind::kSerialized: return "serialized";
  }
  return "?";
}

TransportKind parse_transport_kind(const std::string& name) {
  if (name == "inprocess") return TransportKind::kInProcess;
  if (name == "serialized") return TransportKind::kSerialized;
  throw std::invalid_argument(
      "unknown transport \"" + name + "\" (expected inprocess or serialized)");
}

std::shared_ptr<const Transport> make_transport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return std::make_shared<InProcessTransport>();
    case TransportKind::kSerialized:
      return std::make_shared<SerializedTransport>();
  }
  throw std::invalid_argument("make_transport: bad kind");
}

}  // namespace fed
