#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "serve/protocol.h"

namespace hetpipe::serve {

// Blocking client for one hetpipe_serve connection. Call() pipelines
// naturally — a connection carries any number of request/response pairs in
// order — so a load generator opens one client per in-flight stream.
//
// Not thread-safe: one PlanClient per thread (the protocol has no request
// ids beyond the opaque echo tag, so interleaving writers would scramble
// response ordering anyway).
class PlanClient {
 public:
  PlanClient() = default;
  ~PlanClient();  // closes the connection

  PlanClient(const PlanClient&) = delete;
  PlanClient& operator=(const PlanClient&) = delete;

  // Connects over TCP. Returns false with `error` filled on failure;
  // reconnecting an open client closes the old connection first.
  bool Connect(const std::string& host, int port, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void Close();

  // One round trip: sends the request, blocks for the response frame, and
  // decodes it into key -> value. Returns false with `error` filled on I/O
  // or framing failure (the connection is then closed — a protocol stream
  // with a lost frame boundary cannot be resynchronized). A server-side
  // error (response ok=false) is still a successful Call; inspect
  // (*response)["ok"] / ["error_code"].
  bool Call(const PlanRequest& request, std::map<std::string, JsonValue>* response,
            std::string* error);

  // Raw form used by Call: sends `request_json` verbatim, fills the response
  // payload undecoded.
  bool CallRaw(const std::string& request_json, std::string* response_json, std::string* error);

  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;

 private:
  int fd_ = -1;
  FrameReader reader_;  // reads ahead on fd_; reset on every connect
};

}  // namespace hetpipe::serve
