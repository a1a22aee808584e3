#include "rules/registry.h"

#include <memory>
#include <utility>

#include "common/thread_pool.h"
#include "rules/builtins.h"

namespace sqlcheck {

RuleRegistry RuleRegistry::Default() {
  RuleRegistry registry;
#define SQLCHECK_AP(Id, ...)          \
  registry.Register(New##Id##Rule()); \
  registry.RegisterFixer(New##Id##Fixer());
#include "rules/catalog.def"
  return registry;
}

const Rule* RuleRegistry::FindRule(AntiPattern type) const {
  for (const auto& rule : rules_) {
    if (rule->type() == type) return rule.get();
  }
  return nullptr;
}

const Fixer* RuleRegistry::FindFixer(AntiPattern type) const {
  for (auto it = fixers_.rbegin(); it != fixers_.rend(); ++it) {
    if ((*it)->type() == type) return it->get();
  }
  return nullptr;
}

Status RuleRegistry::Disable(const std::vector<std::string>& names) {
  std::vector<AntiPattern> disabled;
  disabled.reserve(names.size());
  for (const auto& name : names) {
    const ApInfo* info = FindApInfoByName(name);
    if (info == nullptr) {
      return Status::Error("unknown rule name '" + name +
                           "' in disabled_rules (rule names are the anti-pattern "
                           "display names, e.g. 'Column Wildcard Usage')");
    }
    disabled.push_back(info->type);
  }
  std::erase_if(rules_, [&disabled](const std::unique_ptr<Rule>& rule) {
    for (AntiPattern type : disabled) {
      if (rule->type() == type) return true;
    }
    return false;
  });
  return Status::Ok();
}

namespace {

/// Applies every rule to the profile shard [begin, end) of `profiles`.
void CheckDataShard(const Context& context, const RuleRegistry& registry,
                    const DetectorConfig& config,
                    const std::vector<const TableProfile*>& profiles, size_t begin,
                    size_t end, std::vector<Detection>* out) {
  for (size_t i = begin; i < end; ++i) {
    for (const auto& rule : registry.rules()) {
      rule->CheckData(*profiles[i], context, config, out);
    }
  }
}

}  // namespace

std::vector<Detection> DetectAntiPatterns(const Context& context,
                                          const RuleRegistry& registry,
                                          const DetectorConfig& config,
                                          int parallelism, ThreadPool* pool) {
  const std::vector<QueryFacts>& queries = context.queries();
  const size_t n = queries.size();

  // Fingerprint grouping from the context build; fall back to the identity
  // mapping for contexts that carry none (e.g. hand-constructed ones).
  const QueryGroups& groups = context.query_groups();
  QueryGroups identity;
  const QueryGroups* g = &groups;
  if (groups.representative.size() != n) {
    identity.representative.resize(n);
    identity.unique.resize(n);
    for (size_t i = 0; i < n; ++i) identity.representative[i] = identity.unique[i] = i;
    g = &identity;
  }
  const size_t unique_count = g->unique.size();

  // Profiles in map-iteration order, so serial and sharded runs agree.
  std::vector<const TableProfile*> profiles;
  if (config.data_analysis) {
    profiles.reserve(context.data().profiles.size());
    for (const auto& [_, profile] : context.data().profiles) profiles.push_back(&profile);
  }

  // Query rules run once per unique fingerprint group (Algorithm 2 memoized):
  // every statement in a group carries identical facts modulo raw_sql/stmt,
  // so one evaluation of the group's representative stands in for all of
  // them. Results land in per-group slots, then fan back out to every
  // occurrence in original statement order — reproducing the serial
  // (query-major, rule-minor) detection stream byte-for-byte.
  int threads = ThreadPool::ResolveParallelism(parallelism);
  std::unique_ptr<ThreadPool> transient;
  if (threads > 1 && pool == nullptr) {
    transient = std::make_unique<ThreadPool>(threads);
    pool = transient.get();
  }

  std::vector<std::vector<Detection>> per_group(unique_count);
  ParallelShards(
      unique_count, threads,
      [&](int /*shard*/, size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
          std::vector<Detection>* out = &per_group[u];
          for (const auto& rule : registry.rules()) {
            rule->CheckQuery(queries[g->unique[u]], context, config, out);
          }
        }
      },
      pool);

  std::vector<std::vector<Detection>> data_buffers(
      static_cast<size_t>(threads > 1 ? threads : 1));
  ParallelShards(
      profiles.size(), threads,
      [&](int shard, size_t begin, size_t end) {
        CheckDataShard(context, registry, config, profiles, begin, end,
                       &data_buffers[static_cast<size_t>(shard)]);
      },
      pool);

  // Merge the per-shard data buffers in shard order (== profile map order),
  // then serialize the final stream through the shared fan-out.
  std::vector<Detection> data_detections;
  size_t data_total = 0;
  for (const auto& buffer : data_buffers) data_total += buffer.size();
  data_detections.reserve(data_total);
  for (auto& buffer : data_buffers) {
    for (auto& d : buffer) data_detections.push_back(std::move(d));
  }
  return FanOutDetections(context, *g, std::move(per_group), std::move(data_detections));
}

std::vector<Detection> FanOutDetections(const Context& context, const QueryGroups& groups,
                                        std::vector<std::vector<Detection>> per_group,
                                        std::vector<Detection> data_detections) {
  const std::vector<QueryFacts>& queries = context.queries();
  const size_t n = groups.representative.size();
  const size_t unique_count = groups.unique.size();

  // Fan out: statement i gets its group's detections, rebased onto its own
  // raw text / parse tree wherever the rule pointed them at the
  // representative's. Statements that lead a single-occurrence group take
  // their buffer by move (the common non-duplicate case costs nothing).
  std::vector<size_t> group_pos(n);
  std::vector<size_t> group_size(unique_count, 0);
  for (size_t u = 0; u < unique_count; ++u) group_pos[groups.unique[u]] = u;
  for (size_t i = 0; i < n; ++i) ++group_size[group_pos[groups.representative[i]]];

  size_t total = data_detections.size();
  for (size_t i = 0; i < n; ++i) {
    total += per_group[group_pos[groups.representative[i]]].size();
  }

  std::vector<Detection> detections;
  detections.reserve(total);
  std::vector<size_t> remaining(unique_count);
  for (size_t u = 0; u < unique_count; ++u) remaining[u] = group_size[u];
  for (size_t i = 0; i < n; ++i) {
    size_t rep = groups.representative[i];
    size_t g = group_pos[rep];
    std::vector<Detection>& buffer = per_group[g];
    bool last_occurrence = --remaining[g] == 0;
    if (rep == i) {
      // The representative's detections are already correctly based; move
      // them when no later duplicate still needs the originals.
      if (last_occurrence) {
        for (auto& d : buffer) detections.push_back(std::move(d));
      } else {
        for (const auto& d : buffer) detections.push_back(d);
      }
      continue;
    }
    if (last_occurrence) {
      // Final fan-out of this group: rebase the buffer in place and move it
      // out instead of copying every string field one more time.
      for (auto& d : buffer) {
        detections.push_back(RebaseDetection(std::move(d), queries[rep], queries[i]));
      }
      continue;
    }
    for (const auto& d : buffer) {
      detections.push_back(RebaseDetection(d, queries[rep], queries[i]));
    }
  }
  for (auto& d : data_detections) detections.push_back(std::move(d));
  return detections;
}

Detection RebaseDetection(Detection d, const QueryFacts& rep_facts,
                          const QueryFacts& occ_facts) {
  if (d.query == rep_facts.raw_sql) d.query = occ_facts.raw_sql;
  if (d.stmt == rep_facts.stmt) d.stmt = occ_facts.stmt;
  return d;
}

std::vector<Detection> DetectDataAntiPatterns(const Context& context,
                                              const RuleRegistry& registry,
                                              const DetectorConfig& config) {
  std::vector<Detection> out;
  if (!config.data_analysis) return out;
  for (const auto& [_, profile] : context.data().profiles) {
    for (const auto& rule : registry.rules()) {
      rule->CheckData(profile, context, config, &out);
    }
  }
  return out;
}

std::vector<Detection> DetectAntiPatterns(const Context& context,
                                          const DetectorConfig& config,
                                          int parallelism) {
  return DetectAntiPatterns(context, RuleRegistry::Default(), config, parallelism);
}

}  // namespace sqlcheck
