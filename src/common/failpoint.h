#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sqlcheck {

/// \brief Fault-injection points for chaos testing, in the style of
/// FreeBSD's fail(9): code threads named `SQLCHECK_FAILPOINT("name")`
/// branches through its hot seams (arena chunk allocation, thread-pool
/// dispatch, socket I/O, fingerprint-memo inserts, exec-verifier row
/// generation), and a test — or an operator via the `SQLCHECK_FAILPOINTS`
/// environment variable — arms a subset of them to simulate allocation
/// failure, I/O stalls, and slow dispatch against real workloads.
///
/// Cost discipline: a disarmed process pays one relaxed atomic load per
/// site evaluation (the global armed count), nothing else; building with
/// -DSQLCHECK_FAILPOINTS=OFF compiles every site to a constant-false branch
/// the optimizer deletes.
///
/// Modes (the value half of a `name=value` spec):
///   - a float in (0, 1]   fire with that probability per evaluation
///   - `after-N`           fire exactly once, on the Nth evaluation (N >= 1)
///   - `oneshot`           alias for after-1
///
/// Scoped vs unscoped sites: seams whose failures the engine can recover
/// from (allocation inside a session append, memo inserts) evaluate through
/// SQLCHECK_SCOPED_FAILPOINT, which additionally requires an active
/// FailpointScope on the calling thread. The append paths open that scope,
/// so an armed `arena_alloc` can never detonate in code (parser unit tests,
/// report assembly) that has no recovery story — which is what lets the
/// whole test suite run green under a nonzero chaos profile.

namespace failpoint_detail {

extern std::atomic<int> g_armed_count;
extern thread_local int g_scope_depth;

/// Slow path behind the macros; only reached while something is armed.
bool EvalSlow(std::string_view name, bool scoped);

}  // namespace failpoint_detail

/// True while at least one failpoint is armed anywhere in the process.
inline bool AnyFailpointArmed() {
  return failpoint_detail::g_armed_count.load(std::memory_order_relaxed) > 0;
}

/// \brief RAII marker for a recovery-capable region: scoped failpoints fire
/// only on threads whose innermost frames include one of these. Re-entrant.
class FailpointScope {
 public:
  FailpointScope() { ++failpoint_detail::g_scope_depth; }
  ~FailpointScope() { --failpoint_detail::g_scope_depth; }
  FailpointScope(const FailpointScope&) = delete;
  FailpointScope& operator=(const FailpointScope&) = delete;
};

/// \brief RAII suspension of the calling thread's FailpointScope: scoped
/// failpoints are inert until this leaves scope. For recovery *bookkeeping*
/// inside a fault-tolerant region (quarantine fingerprinting, failure
/// recording) that must behave identically whether or not a chaos profile is
/// armed — injecting faults into the recovery path itself only tests that
/// the fallback of the fallback exists, at the price of nondeterministic
/// quarantine keys.
class FailpointScopeSuspend {
 public:
  FailpointScopeSuspend()
      : saved_(failpoint_detail::g_scope_depth) {
    failpoint_detail::g_scope_depth = 0;
  }
  ~FailpointScopeSuspend() { failpoint_detail::g_scope_depth = saved_; }
  FailpointScopeSuspend(const FailpointScopeSuspend&) = delete;
  FailpointScopeSuspend& operator=(const FailpointScopeSuspend&) = delete;

 private:
  int saved_;
};

/// Attempts a recovery-capable region makes before it gives a transient
/// fault (arena_alloc, memo_insert) up as persistent.
inline constexpr int kFaultRetryAttempts = 4;

/// \brief Counters/config snapshot of one failpoint, for tests and the
/// operator-facing listing.
struct FailpointInfo {
  std::string name;
  std::string mode;  ///< "off", "p=0.02", "after-3", ...
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

/// \brief Process-wide registry of named failpoints. Points are created on
/// first mention (by a site evaluation or a Configure/Arm call) and live for
/// the process; arming/disarming is fully thread-safe and cheap enough for
/// tests to toggle per-case.
class FailpointRegistry {
 public:
  static FailpointRegistry& Instance();

  /// Applies a comma-separated spec: `name=prob|after-N|oneshot,...` — the
  /// `SQLCHECK_FAILPOINTS` environment syntax. Unknown names register new
  /// points (a site may not have been reached yet). Non-OK names the first
  /// malformed entry; valid entries before it are applied.
  Status Configure(std::string_view spec);

  /// Arms one point. `mode` uses the spec's value syntax.
  Status Arm(std::string_view name, std::string_view mode);

  void Disarm(std::string_view name);

  /// Disarms everything and zeroes counters — the chaos tests' reset.
  void DisarmAll();

  /// Snapshot of every registered point.
  std::vector<FailpointInfo> List() const;

  /// Counters for one point (zeroes if it does not exist).
  FailpointInfo Info(std::string_view name) const;

 private:
  FailpointRegistry();
  friend bool failpoint_detail::EvalSlow(std::string_view, bool);

  struct Point;
  Point* FindOrCreateLocked(std::string_view name);
  Point* Find(std::string_view name) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Point>> points_;  ///< Stable addresses.
};

#if defined(SQLCHECK_NO_FAILPOINTS)
#define SQLCHECK_FAILPOINT(name) false
#define SQLCHECK_SCOPED_FAILPOINT(name) false
#else
/// Evaluates to true when the named failpoint decides this call should fail.
#define SQLCHECK_FAILPOINT(name) \
  (::sqlcheck::AnyFailpointArmed() && ::sqlcheck::failpoint_detail::EvalSlow(name, false))
/// As above, but inert unless the calling thread holds a FailpointScope.
#define SQLCHECK_SCOPED_FAILPOINT(name) \
  (::sqlcheck::AnyFailpointArmed() && ::sqlcheck::failpoint_detail::EvalSlow(name, true))
#endif

}  // namespace sqlcheck
