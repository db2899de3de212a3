#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tsviz::vizbench {

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Client::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

Status Client::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IoError(std::string("socket: ") + strerror(errno));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::IoError(std::string("connect: ") + strerror(errno));
    Close();
    return status;
  }
  return Status::OK();
}

Status Client::Send(std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + strerror(errno));
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Status Client::ReadReply(std::string* body) {
  size_t scanned = pos_;
  while (true) {
    // A reply ends at its first empty line: either the buffer starts with
    // '\n' (empty body) or a "\n\n" pair closes the last body line.
    if (buf_.size() > pos_ && buf_[pos_] == '\n') {
      body->clear();
      pos_ += 1;
      break;
    }
    const size_t end = buf_.find("\n\n", scanned > pos_ ? scanned - 1 : pos_);
    if (end != std::string::npos) {
      body->assign(buf_, pos_, end + 1 - pos_);
      pos_ = end + 2;
      break;
    }
    scanned = buf_.size();
    if (pos_ > 0 && pos_ * 2 > buf_.size()) {
      buf_.erase(0, pos_);
      scanned -= pos_;
      pos_ = 0;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + strerror(errno));
    }
    if (n == 0) return Status::IoError("connection closed by server");
    buf_.append(chunk, static_cast<size_t>(n));
  }
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return Status::OK();
}

}  // namespace tsviz::vizbench
