#include <fcntl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"

namespace perfbench {

namespace fs = std::filesystem;

void RunResult::Fail(std::string why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(why));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double TailQuantileLevel(size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------- tracing ---------------------------------

int Tracer::Begin(std::string name, uint64_t request) {
  int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), NowNs(), 0, stack_.empty() ? -1 : stack_.back(),
                    request});
  stack_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Tracer::Record(std::string name, int64_t start_ns, int64_t end_ns, uint64_t request) {
  if (!enabled_) return -1;
  int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), start_ns, end_ns,
                    stack_.empty() ? -1 : stack_.back(), request});
  return id;
}

std::map<std::string, double> Tracer::SelfSeconds(int root) const {
  // Children lists for the subtree (spans are appended in start order, and
  // a child always comes after its parent).
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<char> in_tree(spans_.size(), 0);
  in_tree[static_cast<size_t>(root)] = 1;
  for (size_t i = static_cast<size_t>(root) + 1; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    if (p >= 0 && in_tree[static_cast<size_t>(p)]) {
      in_tree[i] = 1;
      children[static_cast<size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (size_t i = static_cast<size_t>(root); i < spans_.size(); ++i) {
    if (!in_tree[i]) continue;
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<size_t>(c)];
      iv.emplace_back(std::max(k.start_ns, s.start_ns), std::min(k.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"request\": %llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// ------------------------------- corpus trees -------------------------------

bool Tree::Write(bool alternate, bool only_changed) const {
  for (const TreeFile& file : files) {
    if (only_changed && file.alternate.empty()) continue;
    fs::path path = fs::path(root) / file.rel_path;
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec) return false;
    // Rewritten in place, not truncated first: a file that keeps its size
    // keeps its blocks, so laying the same tree down again frees and
    // allocates nothing.
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    const std::string& content =
        alternate && !file.alternate.empty() ? file.alternate : file.base;
    bool ok = true;
    for (size_t off = 0; ok && off < content.size();) {
      ssize_t n = ::pwrite(fd, content.data() + off, content.size() - off,
                           static_cast<off_t>(off));
      ok = n > 0;
      if (ok) off += static_cast<size_t>(n);
    }
    ok = ok && ::ftruncate(fd, static_cast<off_t>(content.size())) == 0;
    ok = ::close(fd) == 0 && ok;
    if (!ok) return false;
  }
  return true;
}

void RemoveAll(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st{};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x65735546: return "fuse";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace perfbench
