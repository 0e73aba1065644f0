#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hetpipe::serve {

PlanClient::~PlanClient() { Close(); }

void PlanClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool PlanClient::Connect(const std::string& host, int port, std::string* error) {
  Close();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = "socket: " + ErrnoString(errno);
    return false;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string& target = host.empty() ? std::string("127.0.0.1") : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad host \"" + target + "\" (want an IPv4 address)";
    ::close(fd);
    return false;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (error) *error = "connect: " + ErrnoString(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  reader_.Reset(fd);
  return true;
}

bool PlanClient::CallRaw(const std::string& request_json, std::string* response_json,
                         std::string* error) {
  if (fd_ < 0) {
    if (error) *error = "not connected";
    return false;
  }
  if (!WriteFrame(fd_, request_json, max_frame_bytes, error)) {
    Close();
    return false;
  }
  FrameResult result = reader_.Read(max_frame_bytes, response_json, error);
  if (result == FrameResult::kFrame) return true;
  if (result == FrameResult::kEof && error) *error = "server closed the connection";
  Close();
  return false;
}

bool PlanClient::Call(const PlanRequest& request, std::map<std::string, JsonValue>* response,
                      std::string* error) {
  std::string payload;
  if (!CallRaw(request.ToJson(), &payload, error)) return false;
  if (!ParseJsonObject(payload, response, error)) {
    // A malformed response means the stream is unusable, same as a framing
    // failure.
    Close();
    return false;
  }
  return true;
}

}  // namespace hetpipe::serve
