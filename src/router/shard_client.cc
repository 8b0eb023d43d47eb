#include "router/shard_client.h"

#include <cctype>
#include <utility>

namespace sgq {

std::string ShardEndpoint::ToString() const {
  if (!unix_path.empty()) return "unix:" + unix_path;
  return host + ":" + std::to_string(port);
}

bool ParseShardEndpoint(std::string_view text, ShardEndpoint* endpoint,
                        std::string* error) {
  ShardEndpoint parsed;
  if (text.rfind("unix:", 0) == 0) {
    parsed.unix_path = std::string(text.substr(5));
    if (parsed.unix_path.empty()) {
      *error = "empty unix socket path in '" + std::string(text) + "'";
      return false;
    }
    *endpoint = std::move(parsed);
    return true;
  }
  if (!text.empty() && text.front() == '/') {
    parsed.unix_path = std::string(text);
    *endpoint = std::move(parsed);
    return true;
  }
  const size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    *error = "expected unix:/path, /path, or host:port, got '" +
             std::string(text) + "'";
    return false;
  }
  uint32_t port = 0;
  for (const char c : text.substr(colon + 1)) {
    if (!std::isdigit(static_cast<unsigned char>(c)) || port > 65535) {
      *error = "bad port in '" + std::string(text) + "'";
      return false;
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
  }
  if (port == 0 || port > 65535) {
    *error = "bad port in '" + std::string(text) + "'";
    return false;
  }
  parsed.host = std::string(text.substr(0, colon));
  parsed.port = static_cast<uint16_t>(port);
  *endpoint = std::move(parsed);
  return true;
}

bool ParseShardEndpoints(std::string_view csv,
                         std::vector<ShardEndpoint>* endpoints,
                         std::string* error) {
  endpoints->clear();
  size_t start = 0;
  while (start <= csv.size()) {
    size_t end = csv.find(',', start);
    if (end == std::string_view::npos) end = csv.size();
    const std::string_view token = csv.substr(start, end - start);
    ShardEndpoint endpoint;
    if (!ParseShardEndpoint(token, &endpoint, error)) return false;
    endpoints->push_back(std::move(endpoint));
    start = end + 1;
    if (end == csv.size()) break;
  }
  if (endpoints->empty()) {
    *error = "empty shard list";
    return false;
  }
  return true;
}

bool ShardConnection::Connect(std::string* error) {
  if (fd_.valid()) {
    reused_ = true;
    return true;
  }
  reused_ = false;
  buffer_.clear();
  consumed_ = scanned_ = 0;
  if (!endpoint_.unix_path.empty()) {
    fd_ = ConnectUnix(endpoint_.unix_path, error);
  } else {
    fd_ = StartConnectTcp(endpoint_.host, endpoint_.port, &connecting_,
                          error);
  }
  if (!fd_.valid()) {
    *error = endpoint_.ToString() + ": " + *error;
    return false;
  }
  return true;
}

bool ShardConnection::FinishConnect(std::string* error) {
  connecting_ = false;
  if (!FinishConnectTcp(fd_.get(), error)) {
    fd_.Reset();
    *error = endpoint_.ToString() + ": " + *error;
    return false;
  }
  return true;
}

bool ShardConnection::Send(std::string_view bytes, std::string* error) {
  if (!fd_.valid()) {
    *error = endpoint_.ToString() + ": not connected";
    return false;
  }
  if (!WriteAll(fd_.get(), bytes)) {
    fd_.Reset();
    *error = endpoint_.ToString() + ": send failed (peer closed?)";
    return false;
  }
  return true;
}

bool ShardConnection::ReadAvailable(std::string* error) {
  // Drop the lines already handed out: one move per read, not per line.
  buffer_.erase(0, consumed_);
  scanned_ -= consumed_;
  consumed_ = 0;
  if (buffer_.size() > kMaxShardResponseLineBytes) {
    fd_.Reset();
    *error = endpoint_.ToString() + ": response line too long";
    return false;
  }
  char buf[64 * 1024];
  const ssize_t n = ReadSome(fd_.get(), buf, sizeof(buf));
  if (n <= 0) {
    fd_.Reset();
    *error = endpoint_.ToString() +
             (n == 0 ? ": connection closed by shard" : ": read failed");
    return false;
  }
  buffer_.append(buf, static_cast<size_t>(n));
  return true;
}

bool ShardConnection::NextLine(std::string_view* line) {
  const size_t newline = buffer_.find('\n', scanned_);
  if (newline == std::string::npos) {
    scanned_ = buffer_.size();
    return false;
  }
  *line = std::string_view(buffer_).substr(consumed_, newline - consumed_);
  consumed_ = scanned_ = newline + 1;
  return true;
}

std::unique_ptr<ShardConnection> ShardConnectionPool::Checkout(size_t shard) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_[shard].empty()) {
      std::unique_ptr<ShardConnection> connection =
          std::move(idle_[shard].back());
      idle_[shard].pop_back();
      return connection;
    }
  }
  return std::make_unique<ShardConnection>(endpoints_[shard]);
}

void ShardConnectionPool::CheckIn(size_t shard,
                                  std::unique_ptr<ShardConnection> connection) {
  if (connection == nullptr || !connection->connected()) return;
  std::lock_guard<std::mutex> lock(mu_);
  idle_[shard].push_back(std::move(connection));
}

}  // namespace sgq
