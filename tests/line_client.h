// A minimal blocking client of the line protocol (service/protocol.h) for
// the socket tests: connects over a Unix or TCP socket, writes whole
// buffers and reads one response line at a time.
#ifndef SGQ_TESTS_LINE_CLIENT_H_
#define SGQ_TESTS_LINE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "util/socket.h"

namespace sgq::testing {

class LineClient {
 public:
  bool Connect(const std::string& path) {
    std::string error;
    fd_ = ConnectUnix(path, &error);
    return fd_.valid();
  }

  bool ConnectTcp(uint16_t port) {
    std::string error;
    fd_ = sgq::ConnectTcp("127.0.0.1", port, &error);
    return fd_.valid();
  }

  bool Send(const std::string& bytes) { return WriteAll(fd_.get(), bytes); }

  bool RecvLine(std::string* line) {
    line->clear();
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[512];
      const ssize_t n = ReadSome(fd_.get(), chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // One QUERY ... IDS exchange, header and payload in two writes. Returns
  // the head line; *ids gets the IDS continuation line when the head
  // carries an answer count (OK/TIMEOUT), "" otherwise.
  std::string QueryIds(const std::string& payload, std::string* ids,
                       uint64_t limit = 0, double timeout_seconds = 0) {
    std::string header = "QUERY " + std::to_string(payload.size());
    if (timeout_seconds > 0) header += ' ' + std::to_string(timeout_seconds);
    if (limit > 0) header += " LIMIT " + std::to_string(limit);
    header += " IDS\n";
    ids->clear();
    std::string line;
    if (!Send(header) || !Send(payload) || !RecvLine(&line)) return "";
    const ResponseHead head = ParseResponseHead(line);
    if (head.has_count && !RecvLine(ids)) return "";
    return line;
  }

  // One QUERY ... STREAM exchange: consumes incremental IDS chunk lines
  // into `ids` and returns the terminal line ("" on drop/bad chunk).
  std::string StreamQuery(const std::string& payload, uint64_t limit,
                          std::vector<GraphId>* ids) {
    std::string header = "QUERY " + std::to_string(payload.size());
    if (limit > 0) header += " LIMIT " + std::to_string(limit);
    header += " STREAM\n";
    ids->clear();
    if (!Send(header) || !Send(payload)) return "";
    std::string line;
    for (;;) {
      if (!RecvLine(&line)) return "";
      if (line.rfind("IDS", 0) != 0) return line;
      if (!ParseIdsChunk(line, ids)) return "";
    }
  }

 private:
  UniqueFd fd_;
  std::string buffer_;
};

}  // namespace sgq::testing

#endif  // SGQ_TESTS_LINE_CLIENT_H_
