// ResultSink that streams answer ids to a connected peer as IDS chunk
// lines (the STREAM response framing of service/protocol.h). Shared by the
// shard server and the router front end.
#ifndef SGQ_SERVICE_STREAM_SINK_H_
#define SGQ_SERVICE_STREAM_SINK_H_

#include <cstddef>
#include <vector>

#include "query/result_sink.h"
#include "service/protocol.h"
#include "util/socket.h"

namespace sgq {

// OnAnswer is called from whichever thread drives the scan: a service
// worker, while the connection thread is blocked on the request until the
// scan finishes, or the router's connection thread itself, from its
// fan-out loop. Either way the socket has exactly one writer at any
// moment. A failed write makes OnAnswer return
// false, which stops the enumeration at the matcher — no point scanning
// for a peer that hung up.
class SocketStreamSink : public ResultSink {
 public:
  explicit SocketStreamSink(int fd) : fd_(fd) {}

  bool OnAnswer(GraphId id) override {
    pending_.push_back(id);
    if (pending_.size() >= kChunkIds) return Flush();
    return ok_;
  }

  void FlushHint() override { Flush(); }

  // Writes the buffered ids as one chunk line; false once any write
  // failed. Call once more before the terminal response line.
  bool Flush() {
    if (ok_ && !pending_.empty()) {
      ok_ = WriteAll(fd_, FormatIdsLine(pending_));
      pending_.clear();
    }
    return ok_;
  }

 private:
  // Ids per chunk line: small enough for sub-millisecond time-to-first-id,
  // large enough that syscall overhead stays negligible.
  static constexpr size_t kChunkIds = 64;

  const int fd_;
  std::vector<GraphId> pending_;
  bool ok_ = true;
};

}  // namespace sgq

#endif  // SGQ_SERVICE_STREAM_SINK_H_
