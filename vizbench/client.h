// Blocking loopback client for the server's newline-delimited protocol:
// one statement per line out, one CSV reply terminated by a blank line back.
#ifndef TSVIZ_VIZBENCH_CLIENT_H_
#define TSVIZ_VIZBENCH_CLIENT_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace tsviz::vizbench {

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects to 127.0.0.1:`port` with TCP_NODELAY.
  Status Connect(int port);
  // Writes all of `data` (any number of newline-terminated statements).
  Status Send(std::string_view data);
  // Reads the next reply; `body` receives its lines (each with its '\n')
  // without the blank-line terminator.
  Status ReadReply(std::string* body);
  // Half-closes the connection: the server answers what was sent, then
  // closes, so a blocked ReadReply returns once every reply is in.
  void ShutdownWrite();
  void Close();

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;  // start of the unread part of buf_
};

// Whether a reply body is an error reply (ERROR lines, busy, shed).
inline bool IsErrorReply(const std::string& body) {
  return body.rfind("ERROR", 0) == 0;
}

}  // namespace tsviz::vizbench

#endif  // TSVIZ_VIZBENCH_CLIENT_H_
