// tenant_stream: the shipped sqlcheck-server in its own process, driven
// open-loop over four tenant connections by one generator thread. Also the
// live-server probe every traced run includes.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <set>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "core/emit.h"
#include "core/session.h"
#include "server/handler.h"
#include "server/wire.h"
#include "workload/django.h"

namespace perfbench {

using namespace sqlcheck;

namespace {

constexpr int kTenants = 4;
constexpr int kSetupReps = 5;

std::string CheckLine(const std::string& sql) {
  return "{\"op\": \"check\", \"sql\": \"" + JsonEscape(sql) + "\"}";
}
const char kSnapshotLine[] = "{\"op\": \"snapshot\", \"format\": \"json\"}";

const char kResetLine[] = "{\"op\": \"reset\"}";

enum class Kind : uint8_t { kCheck, kSnapshot, kReset };
Kind KindOf(const std::string& line) {
  if (line == kSnapshotLine) return Kind::kSnapshot;
  return line == kResetLine ? Kind::kReset : Kind::kCheck;
}

// Terminal lines open with their op and ok members (docs/PROTOCOL.md), so
// classifying a possibly huge snapshot line never scans past its head.
constexpr std::string_view kFindingPrefix = "{\"op\": \"finding\"";
constexpr std::string_view kCheckOkPrefix = "{\"op\": \"check\", \"ok\": true";
constexpr std::string_view kResetOkPrefix = "{\"op\": \"reset\", \"ok\": true";
constexpr std::string_view kSnapshotOkPrefix =
    "{\"op\": \"snapshot\", \"ok\": true, \"format\": \"json\"";

/// Value of the integer member `key` in a one-line JSON object; -1 if absent.
int64_t IntField(std::string_view line, std::string_view key) {
  std::string needle = "\"" + std::string(key) + "\": ";
  size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return -1;
  return std::strtoll(line.data() + pos + needle.size(), nullptr, 10);
}

/// Decodes the JSON string member `key` of a one-line object.
bool StringField(std::string_view line, std::string_view key, std::string* out) {
  std::string needle = "\"" + std::string(key) + "\": \"";
  size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return false;
  out->clear();
  for (size_t i = pos + needle.size(); i < line.size(); ++i) {
    char c = line[i];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= line.size()) return false;
    switch (line[i]) {
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (i + 4 >= line.size()) return false;
        unsigned code = static_cast<unsigned>(
            std::strtoul(std::string(line.substr(i + 1, 4)).c_str(), nullptr, 16));
        i += 4;
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: out->push_back(line[i]); break;
    }
  }
  return false;
}

/// Span request id of tenant `t`'s request number `index` in a step; the
/// in-process replay of the same line carries the same id.
uint64_t RequestId(uint32_t tenant, uint32_t index) {
  return (static_cast<uint64_t>(tenant + 1) << 32) | index;
}

/// Tenants take their snapshots out of step with each other, as independent
/// users would, instead of all at once every `snapshot_every` requests.
int SnapshotPhase(const StreamShape& shape, size_t tenant, size_t tenants) {
  return static_cast<int>(tenant * static_cast<size_t>(shape.snapshot_every) / tenants);
}

bool IsStreamedLine(std::string_view line) {
  return line.starts_with("{\"op\": \"finding\"") ||
         line.starts_with("{\"op\": \"statement_error\"");
}

bool WaitReadable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, timeout_ms) > 0;
}

/// Moves complete lines out of `buf` into `lines`.
void TakeLines(std::string* buf, std::vector<std::string>* lines) {
  size_t start = 0;
  for (size_t nl; (nl = buf->find('\n', start)) != std::string::npos; start = nl + 1) {
    lines->emplace_back(*buf, start, nl - start);
  }
  buf->erase(0, start);
}

/// The Django pool of Table 7: every distinct statement of the 15 apps.
std::vector<std::string> DjangoPool() {
  std::set<std::string> distinct;
  for (const auto& spec : workload::DjangoAppSpecs()) {
    for (auto& sql : workload::GenerateDjangoWorkload(spec)) distinct.insert(std::move(sql));
  }
  return {distinct.begin(), distinct.end()};
}

/// Tenant t's statements for one session: a seeded repeating mix of the pool.
std::vector<std::vector<std::string>> TenantSession(const std::vector<std::string>& pool,
                                                    Rng* rng, int per_tenant) {
  std::vector<std::vector<std::string>> out(kTenants);
  for (auto& tenant : out) {
    for (int i = 0; i < per_tenant; ++i) tenant.push_back(pool[rng->NextBelow(pool.size())]);
  }
  return out;
}

}  // namespace

// ------------------------------ ServerProcess -------------------------------

bool ServerProcess::Start(const std::string& binary, std::string* error) {
  int out[2];
  if (::pipe(out) != 0) {
    *error = "pipe failed";
    return false;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execl(binary.c_str(), binary.c_str(), "--port", "0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  pid_ = pid;
  std::string buf;
  char chunk[256];
  while (buf.find('\n') == std::string::npos) {
    if (!WaitReadable(out[0], 10000)) break;
    ssize_t n = ::read(out[0], chunk, sizeof(chunk));
    if (n <= 0) break;
    buf.append(chunk, static_cast<size_t>(n));
  }
  ::close(out[0]);  // the server ignores SIGPIPE; later stdout writes just fail
  size_t colon = buf.rfind(':');
  if (buf.find("listening on") == std::string::npos || colon == std::string::npos) {
    *error = "server did not start (" + binary + ")";
    Stop();
    return false;
  }
  port_ = static_cast<uint16_t>(std::atoi(buf.c_str() + colon + 1));
  return port_ != 0;
}

void ServerProcess::Stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  rusage usage{};
  for (int waited_ms = 0;; waited_ms += 5) {
    pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_ || r < 0) break;
    if (waited_ms == 5000) ::kill(pid_, SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
  pid_ = -1;
}

// ------------------------------- TenantClient -------------------------------

bool TenantClient::Connect(uint16_t port, int tenants, std::string* error) {
  Close();
  for (int t = 0; t < tenants; ++t) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd >= 0) ::close(fd);
      *error = "connect failed";
      return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds_.push_back(fd);
    inbuf_.emplace_back();
    std::string hello;
    if (!Exchange(t, "", &hello, error) || hello.find("\"hello\"") == std::string::npos) {
      *error = "no hello from server";
      return false;
    }
  }
  return true;
}

void TenantClient::Close() {
  for (int fd : fds_) ::close(fd);
  fds_.clear();
  inbuf_.clear();
}

bool TenantClient::Exchange(int tenant, const std::string& line, std::string* terminal,
                            std::string* error) {
  int fd = fds_[static_cast<size_t>(tenant)];
  std::string out = line.empty() ? std::string() : line + "\n";
  for (size_t off = 0; off < out.size();) {
    ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
    } else {
      *error = "send failed";
      return false;
    }
  }
  std::string& buf = inbuf_[static_cast<size_t>(tenant)];
  char chunk[65536];
  for (;;) {
    std::vector<std::string> lines;
    TakeLines(&buf, &lines);
    for (size_t i = 0; i < lines.size(); ++i) {
      if (IsStreamedLine(lines[i])) continue;
      *terminal = std::move(lines[i]);
      // Anything after the terminal belongs to a later exchange.
      std::string rest;
      for (size_t j = i + 1; j < lines.size(); ++j) rest += lines[j] + "\n";
      buf.insert(0, rest);
      return true;
    }
    if (!WaitReadable(fd, 30000)) {
      *error = "server response timed out";
      return false;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      *error = "server closed the connection";
      return false;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

bool TenantClient::ResetAll(std::string* error) {
  for (size_t t = 0; t < fds_.size(); ++t) {
    std::string reply;
    if (!Exchange(static_cast<int>(t), kResetLine, &reply, error)) return false;
    if (reply.find("\"ok\": true") == std::string::npos) {
      *error = "reset refused: " + reply;
      return false;
    }
  }
  return true;
}

bool TenantClient::SnapshotDocument(int tenant, std::string* document, std::string* error) {
  std::string reply;
  if (!Exchange(tenant, kSnapshotLine, &reply, error)) return false;
  if (!StringField(reply, "document", document)) {
    *error = "snapshot without a document: " + reply.substr(0, 200);
    return false;
  }
  return true;
}

bool TenantClient::ShedCount(uint64_t* shed, std::string* error) {
  std::string reply;
  if (!Exchange(0, "{\"op\": \"stats\"}", &reply, error)) return false;
  int64_t v = IntField(reply, "requests_shed");
  if (v < 0) {
    *error = "stats without requests_shed";
    return false;
  }
  *shed = static_cast<uint64_t>(v);
  return true;
}

namespace {

/// Request lines of one tenant's step, in send order. `phase` shifts where
/// the snapshots fall.
std::vector<std::string> StepRequestLines(const std::vector<std::string>& statements,
                                          const StreamShape& shape, int phase) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < statements.size(); ++i) {
    lines.push_back(CheckLine(statements[i]));
    size_t n = i + 1;
    if (shape.snapshot_every > 0 &&
        (n + static_cast<size_t>(phase)) % static_cast<size_t>(shape.snapshot_every) == 0) {
      lines.push_back(kSnapshotLine);
    }
    if (shape.reset_every > 0 && n % static_cast<size_t>(shape.reset_every) == 0 &&
        n < statements.size()) {
      lines.push_back(kResetLine);
    }
  }
  return lines;
}

}  // namespace

StepStats TenantClient::RunStep(const std::vector<std::vector<std::string>>& statements,
                                const StreamShape& shape, double rate_rps, Tracer& tracer) {
  StepStats st;
  st.rate_rps = rate_rps;
  const size_t tenants = fds_.size();
  st.check_findings.resize(tenants);

  // Round-robin schedule over the tenants' request lines.
  struct Item {
    uint32_t tenant;
    uint32_t index;  ///< Position in the tenant's lines.
    Kind kind;
    const std::string* line;
  };
  std::vector<std::vector<std::string>> lines(tenants);
  for (size_t t = 0; t < tenants; ++t) {
    lines[t] = StepRequestLines(statements[t], shape, SnapshotPhase(shape, t, tenants));
  }
  std::vector<Item> items;
  for (size_t j = 0;; ++j) {
    bool any = false;
    for (size_t t = 0; t < tenants; ++t) {
      if (j < lines[t].size()) {
        items.push_back({static_cast<uint32_t>(t), static_cast<uint32_t>(j),
                         KindOf(lines[t][j]), &lines[t][j]});
        any = true;
      }
    }
    if (!any) break;
  }
  const size_t total = items.size();
  st.attempted = total;
  // Open loop: request k is due at t0 + k / rate. Closed loop (rate 0): a
  // tenant's next request is due the moment its previous reply arrives.
  const bool closed = rate_rps <= 0;
  std::vector<int64_t> due(total, 0);
  const int64_t t0 = NowNs() + 1000000;
  for (size_t k = 0; !closed && k < total; ++k) {
    due[k] = t0 + static_cast<int64_t>(1e9 / rate_rps * static_cast<double>(k));
  }
  std::vector<std::deque<size_t>> pending(tenants);  // closed loop: unsent, in order
  for (size_t k = 0; closed && k < total; ++k) pending[items[k].tenant].push_back(k);

  std::vector<std::string> out(tenants);
  std::vector<size_t> out_off(tenants, 0);
  std::vector<std::deque<size_t>> inflight(tenants);
  std::vector<pollfd> pfds(tenants);
  size_t next = 0, done = 0;
  int64_t last_response = 0, last_activity = t0;
  char chunk[65536];
  std::vector<std::string> got;

  while (done < total) {
    int64_t now = NowNs();
    if (now > std::max(last_activity, closed ? 0 : due[total - 1]) + 10'000'000'000) {
      st.failed += total - done - 1;
      st.Fail("no response for 10 s after a request was due");
      break;
    }
    auto send = [&](size_t k) {
      const Item& it = items[k];
      out[it.tenant] += *it.line;
      out[it.tenant] += '\n';
      inflight[it.tenant].push_back(k);
      ++next;
    };
    if (closed) {
      for (size_t t = 0; t < tenants; ++t) {
        if (inflight[t].empty() && !pending[t].empty()) {
          due[pending[t].front()] = now;
          send(pending[t].front());
          pending[t].pop_front();
        }
      }
    } else {
      while (next < total && due[next] <= now) {
        st.late_ms.push_back(static_cast<double>(now - due[next]) * 1e-6);
        send(next);
      }
    }
    for (size_t t = 0; t < tenants; ++t) {
      while (out_off[t] < out[t].size()) {
        ssize_t n = ::send(fds_[t], out[t].data() + out_off[t], out[t].size() - out_off[t],
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n <= 0) break;
        out_off[t] += static_cast<size_t>(n);
      }
      if (out_off[t] == out[t].size()) {
        out[t].clear();
        out_off[t] = 0;
      }
      pfds[t] = {fds_[t], static_cast<short>(POLLIN | (out[t].empty() ? 0 : POLLOUT)), 0};
    }
    int64_t wait_ns =
        !closed && next < total ? std::max<int64_t>(0, due[next] - NowNs()) : 50'000'000;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (size_t t = 0; t < tenants; ++t) {
      if (!(pfds[t].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      ssize_t n;
      while ((n = ::recv(fds_[t], chunk, sizeof(chunk), MSG_DONTWAIT)) > 0) {
        inbuf_[t].append(chunk, static_cast<size_t>(n));
        st.response_bytes += static_cast<uint64_t>(n);
      }
      const int64_t arrived = NowNs();
      got.clear();
      TakeLines(&inbuf_[t], &got);
      for (const std::string& line : got) {
        if (line.starts_with(kFindingPrefix)) continue;
        if (line.starts_with("{\"op\": \"statement_error\"")) {
          st.Fail("statement_error: " + line.substr(0, 160));
          continue;  // the request's terminal follows
        }
        if (inflight[t].empty()) {
          st.Fail("unsolicited line: " + line.substr(0, 160));
          continue;
        }
        size_t k = inflight[t].front();
        inflight[t].pop_front();
        ++done;
        last_response = last_activity = arrived;
        double ms = static_cast<double>(arrived - due[k]) * 1e-6;
        st.latency_sum_s += ms * 1e-3;
        bool ok;
        if (items[k].kind == Kind::kReset) {
          ok = line.starts_with(kResetOkPrefix);
        } else if (items[k].kind == Kind::kSnapshot) {
          st.snapshot_ms.push_back(ms);
          ok = line.starts_with(kSnapshotOkPrefix);
        } else {
          ok = line.starts_with(kCheckOkPrefix);
          st.check_ms.push_back(ms);
          st.check_findings[t].push_back(IntField(line, "findings"));
          ok = ok && IntField(line, "statements") == 1;
        }
        if (!ok) st.Fail("refused: " + line.substr(0, 160));
        static constexpr const char* kSpan[] = {"stream.check", "stream.snapshot",
                                                "stream.reset"};
        tracer.Record(kSpan[static_cast<int>(items[k].kind)], due[k], arrived,
                      RequestId(items[k].tenant, items[k].index));
      }
      if (n == 0 && done < total) {  // peer closed: everything in flight is lost
        st.failed += total - done - 1;
        st.Fail("server closed a tenant connection");
        done = total;
        break;
      }
    }
  }
  st.drain_ms = total == 0 ? 0.0 : static_cast<double>(last_response - due[total - 1]) * 1e-6;
  return st;
}

// ------------------------------ server probe --------------------------------

void RunServerProbe(TenantClient& client, const LayerInputs& inputs, double rate_rps,
                    Tracer& tracer, std::map<std::string, double>* counts,
                    RunResult* result) {
  constexpr size_t kPerTenant = 250;
  constexpr StreamShape kShape{50, 0};
  std::vector<std::vector<std::string>> statements(kTenants);
  for (size_t i = 0; i < inputs.statements.size() && i < kPerTenant * kTenants; ++i) {
    statements[i % kTenants].push_back(inputs.statements[i]);
  }
  Scope probe(tracer, "server.probe");

  // In-process: the same request lines through the wire parser and the
  // session handler, with request ids matching the live requests below.
  std::vector<std::vector<std::string>> lines(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    lines[t] = StepRequestLines(statements[t], kShape, SnapshotPhase(kShape, t, kTenants));
  }
  {
    Scope s(tracer, "server.parse");
    for (const auto& tenant : lines) {
      for (const std::string& line : tenant) server::ParseRequest(line);
    }
  }
  double handler_s = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    server::SessionHandler handler{SqlCheckOptions{}};
    for (size_t j = 0; j < lines[t].size(); ++j) {
      int64_t a = NowNs();
      std::string response = handler.HandleLine(lines[t][j]);
      int64_t b = NowNs();
      handler_s += static_cast<double>(b - a) * 1e-9;
      tracer.Record(KindOf(lines[t][j]) == Kind::kSnapshot ? "server.handle_snapshot"
                                                            : "server.handle_check",
                    a, b, RequestId(static_cast<uint32_t>(t), static_cast<uint32_t>(j)));
    }
  }

  std::string error;
  StepStats step;
  {
    Scope live(tracer, "server.live");
    if (!client.ResetAll(&error)) {
      result->Fail("server probe: " + error);
      return;
    }
    step = client.RunStep(statements, kShape, rate_rps, tracer);
  }
  result->attempted += step.attempted;
  result->failed += step.failed;
  for (auto& e : step.errors) {
    if (result->errors.size() < 8) result->errors.push_back(std::move(e));
  }
  uint64_t shed = 0;
  if (!client.ShedCount(&shed, &error)) result->Fail("server probe: " + error);
  (*counts)["server.transport"] = step.latency_sum_s - handler_s;
  (*counts)["server.shed"] = static_cast<double>(shed);
  (*counts)["server.response_bytes"] = static_cast<double>(step.response_bytes);
  (*counts)["loadgen.late_p99_ms"] = Quantile(step.late_ms, 0.99);
}

// ------------------------------- tenant_stream ------------------------------

namespace {

std::string StepNote(const std::string& phase, const StepStats& st) {
  char note[200];
  std::snprintf(note, sizeof(note),
                "%-13s %8.0f rps  check p50 %7.3f p99 %7.3f  snapshot p50 %7.3f  "
                "drain %7.3f  late p99 %6.3f ms  failed %llu",
                phase.c_str(), st.rate_rps, Median(st.check_ms), Quantile(st.check_ms, 0.99),
                Median(st.snapshot_ms), st.drain_ms, Quantile(st.late_ms, 0.99),
                static_cast<unsigned long long>(st.failed));
  return note;
}

/// Whether a ladder step meets the latency limit with no growing backlog.
bool StepPasses(const StepStats& st, double limit_ms) {
  return st.failed == 0 && Quantile(st.check_ms, 0.99) <= limit_ms &&
         st.drain_ms <= limit_ms;
}

}  // namespace

RunResult RunTenantStream(const Options& options) {
  // Sessions hold at most `reset_every` statements, so snapshot cost stays
  // the same however long a step runs.
  const StreamShape shape{options.smoke ? 20 : 50, options.smoke ? 60 : 500};
  const double reference_step_s = options.smoke ? 0.1 : 1.0;
  const double ladder_step_s = options.smoke ? 0.05 : 0.4;
  const double closed_step_requests = options.smoke ? 200 : 8000;
  const std::vector<std::string> pool = DjangoPool();
  Rng rng(options.seed * 7919 + 17);

  if (options.trace) {
    LayerInputs layer;
    auto session = TenantSession(pool, &rng, shape.reset_every);
    Tree tree;
    tree.root = options.work_dir + "/tree";
    auto alternate = TenantSession(pool, &rng, shape.reset_every);
    for (int t = 0; t < kTenants; ++t) {
      TreeFile file{"tenant" + std::to_string(t) + "/queries.sql", {}, {}};
      std::string host;
      for (const std::string& sql : session[t]) {
        layer.statements.push_back(sql);
        file.base += sql + ";\n";
        host += "cursor.execute(\"" + JsonEscape(sql) + "\")\n";
      }
      if (t == 0) {
        for (const std::string& sql : alternate[t]) file.alternate += sql + ";\n";
      }
      layer.script += file.base;
      layer.host_sources.push_back(std::move(host));
      tree.files.push_back(std::move(file));
    }
    RemoveAll(tree.root);
    tree.Write(false, false);
    layer.tree = &tree;
    layer.store_path = options.work_dir + "/probe.fps";
    return RunTracedPasses(options, layer, [&](Tracer& tracer, TenantClient& client) {
      std::map<std::string, double> counts;
      RunResult ignored;  // the traced pass checks the same step
      Clock::time_point t = Clock::now();
      RunServerProbe(client, layer, options.reference_rps, tracer, &counts, &ignored);
      return SecondsSince(t);
    });
  }

  RunResult result;
  std::vector<double> setup_s;
  ServerProcess server;
  TenantClient client;
  std::string error;
  for (int i = 0; i < kSetupReps; ++i) {
    client.Close();
    server.Stop();
    Clock::time_point t = Clock::now();
    if (!server.Start(options.server_bin, &error) ||
        !client.Connect(server.port(), kTenants, &error)) {
      result.attempted = 1;
      result.Fail("server setup: " + error);
      return result;
    }
    setup_s.push_back(SecondsSince(t));
  }

  Tracer off(false);
  const size_t session = static_cast<size_t>(shape.reset_every);
  std::vector<std::vector<std::string>> last_statements;
  // One step of `requests` across all tenants at `rate` (0 = closed loop;
  // one request in snapshot_every + 1 is a snapshot). Then, outside any timed
  // window, each tenant's first session is replayed offline: every check's
  // findings count must match Check().
  auto run_step = [&](double rate, double requests) -> StepStats {
    double checks = requests / kTenants * shape.snapshot_every / (shape.snapshot_every + 1);
    auto statements = TenantSession(pool, &rng, std::max(1, static_cast<int>(checks)));
    StepStats st;
    if (!client.ResetAll(&error)) {
      st.attempted = 1;
      st.Fail("reset: " + error);
    } else {
      st = client.RunStep(statements, shape, rate, off);
    }
    for (int t = 0; t < kTenants && t < static_cast<int>(st.check_findings.size()); ++t) {
      AnalysisSession offline;
      const auto& got = st.check_findings[t];
      for (size_t i = 0; i < session && i < got.size(); ++i) {
        int64_t expect = static_cast<int64_t>(offline.Check(statements[t][i]).size());
        if (got[i] != expect) {
          st.Fail("tenant " + std::to_string(t) + " check " + std::to_string(i) +
                  " findings " + std::to_string(got[i]) + " != offline " +
                  std::to_string(expect));
        }
      }
    }
    last_statements = std::move(statements);
    result.attempted += st.attempted;
    result.failed += st.failed;
    for (auto& e : st.errors) {
      if (result.errors.size() < 8) result.errors.push_back(std::move(e));
    }
    return st;
  };

  // An untimed warm-up step lets the server's threads and allocators settle.
  run_step(options.reference_rps, options.reference_rps * reference_step_s / 2);

  // Three kinds of step alternate over the whole run, so a burst of host
  // contention lands on a share of each rather than on all of one kind:
  //  - closed loop: each tenant sends its next request when the previous
  //    reply arrives (an editor waiting on each answer). No queue builds up
  //    to amplify a stall, which makes these the gated latencies;
  //  - open loop at the reference rate: requests timed from when they were
  //    due;
  //  - one rung of the ladder. A pass climbs until two rates in a row miss;
  //    a pass the time budget cuts short is dropped unless it is the only one.
  // Percentiles are per step and reported as the median over steps.
  std::vector<double> closed_check_p50, closed_snapshot_p50;
  std::vector<double> check_p50, check_p99, snapshot_p50, late_p99;
  uint64_t closed_checks = 0, closed_snapshots = 0, check_samples = 0, snapshot_samples = 0;
  std::vector<double> pass_max;
  double best = 0.0;
  int misses = 0;
  size_t rung = 0;
  Clock::time_point start = Clock::now();
  while (check_p50.size() < 3 || SecondsSince(start) < options.seconds) {
    StepStats st = run_step(0.0, closed_step_requests);
    result.notes.push_back(StepNote("closed loop", st));
    closed_check_p50.push_back(Median(st.check_ms));
    closed_snapshot_p50.push_back(Median(st.snapshot_ms));
    closed_checks += st.check_ms.size();
    closed_snapshots += st.snapshot_ms.size();

    st = run_step(options.reference_rps, options.reference_rps * reference_step_s);
    result.notes.push_back(StepNote("reference", st));
    check_p50.push_back(Median(st.check_ms));
    check_p99.push_back(Quantile(st.check_ms, 0.99));
    snapshot_p50.push_back(Median(st.snapshot_ms));
    late_p99.push_back(Quantile(st.late_ms, 0.99));
    check_samples += st.check_ms.size();
    snapshot_samples += st.snapshot_ms.size();

    const double rate = options.ladder_rps[rung];
    st = run_step(rate, rate * ladder_step_s);
    result.notes.push_back(StepNote("ladder pass " + std::to_string(pass_max.size() + 1), st));
    if (StepPasses(st, options.limit_ms)) {
      best = rate;
      misses = 0;
    } else {
      ++misses;
    }
    if (misses == 2 || ++rung == options.ladder_rps.size()) {
      pass_max.push_back(best);
      best = 0.0;
      misses = 0;
      rung = 0;
    }
  }
  if (pass_max.empty()) pass_max.push_back(best);

  // Every tenant's final snapshot equals an offline session fed the same
  // statements (those since the tenant's last in-stream reset).
  for (int t = 0; t < kTenants; ++t) {
    std::string document;
    ++result.attempted;
    AnalysisSession offline;
    const auto& stmts = last_statements[t];
    for (size_t i = (stmts.size() - 1) / session * session; i < stmts.size(); ++i) {
      offline.AddQuery(stmts[i]);
    }
    if (!client.SnapshotDocument(t, &document, &error)) {
      result.Fail("final snapshot: " + error);
    } else if (document != ToJson(offline.Snapshot())) {
      result.Fail("tenant " + std::to_string(t) + " final snapshot differs from offline");
    }
  }
  client.Close();
  server.Stop();

  const size_t steps = check_p50.size();
  result.Add("setup_s", Median(setup_s), "s", setup_s.size());
  result.Add("peak_rss_mb", server.peak_rss_mb(), "MB");
  result.Add("op_p50_ms", Median(closed_check_p50), "ms", closed_checks);
  result.Add("report_p50_ms", Median(closed_snapshot_p50), "ms", closed_snapshots);
  result.Extra("stream.closed_check_p50_ms", Median(closed_check_p50), "ms", closed_checks);
  result.Extra("stream.closed_snapshot_p50_ms", Median(closed_snapshot_p50), "ms",
               closed_snapshots);
  result.Extra("stream.check_p50_ms", Median(check_p50), "ms", check_samples);
  result.Extra("stream.check_p99_ms", Median(check_p99), "ms", check_samples);
  result.Extra("stream.snapshot_p50_ms", Median(snapshot_p50), "ms", snapshot_samples);
  result.Extra("stream.max_rate_rps", Median(pass_max), "1/s", pass_max.size());
  result.Extra("stream.reference_steps", static_cast<double>(steps), "count");
  result.Extra("stream.reference_rps", options.reference_rps, "1/s");
  result.Extra("stream.limit_ms", options.limit_ms, "ms");
  result.Extra("loadgen.late_p99_ms", Median(late_p99), "ms", check_samples);
  result.Extra("stream.pool_statements", static_cast<double>(pool.size()), "count");
  return result;
}

}  // namespace perfbench
