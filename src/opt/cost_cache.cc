#include "opt/cost_cache.h"

#include <cstring>
#include <functional>

namespace dimsum {
namespace {

/// Copies `value`'s bytes to `*at` and advances it.
template <typename T>
void PutRaw(char** at, T value) {
  std::memcpy(*at, &value, sizeof(T));
  *at += sizeof(T);
}

void AppendNode(std::string* out, const PlanNode* node) {
  if (node == nullptr) {
    out->push_back('.');
    return;
  }
  // The node's fixed fields, staged on the stack and appended at once.
  char header[3 + 3 * sizeof(int32_t) + 5 * sizeof(double)];
  static_assert(sizeof(header) == 3 + 12 + 40);
  static_assert(sizeof(node->num_groups) == sizeof(double));
  char* at = header;
  *at++ = '(';
  *at++ = static_cast<char>(node->type);
  *at++ = static_cast<char>(node->annotation);
  PutRaw(&at, node->relation);
  // The serving replica decides which server's disk a scan loads, so it is
  // part of the cost-relevant identity.
  PutRaw(&at, node->replica);
  // Shard fragment identity and the pushed-down key range decide which
  // pages a scan reads and how many tuples it emits.
  PutRaw(&at, node->shard);
  PutRaw(&at, node->key_lo);
  PutRaw(&at, node->key_hi);
  // Operator parameters participate in cardinality estimates, so they are
  // part of the cost-relevant identity (encoded bitwise: the search only
  // ever copies these values, never recomputes them).
  PutRaw(&at, node->selectivity);
  PutRaw(&at, node->width_factor);
  PutRaw(&at, node->num_groups);
  out->append(header, sizeof(header));
  AppendNode(out, node->left.get());
  AppendNode(out, node->right.get());
  out->push_back(')');
}

}  // namespace

std::string PlanSignature(const Plan& plan) {
  std::string signature;
  signature.reserve(static_cast<std::size_t>(plan.Size()) * 32 + 8);
  AppendNode(&signature, plan.root());
  return signature;
}

uint64_t CostCache::HashKey(std::string_view key) {
  static_assert(sizeof(std::size_t) == sizeof(uint64_t));
  return std::hash<std::string_view>{}(key);
}

void CostCache::EncodeKey(const Plan& plan, OptimizeMetric metric) {
  key_.clear();
  AppendNode(&key_, plan.root());
  key_.push_back(static_cast<char>(metric));
}

double CostCache::Cost(const CostModel& model, Plan& plan,
                       const QueryGraph& query, OptimizeMetric metric) {
  EncodeKey(plan, metric);
  const uint64_t hash = HashKey(key_);
  if (auto cached = Lookup(hash, key_); cached.has_value()) return *cached;
  const double cost = model.PlanCost(plan, query, metric);
  Insert(hash, key_, cost);
  return cost;
}

void CostCache::InsertPlan(const Plan& plan, OptimizeMetric metric,
                           double cost) {
  EncodeKey(plan, metric);
  Insert(HashKey(key_), key_, cost);
}

int CostCache::Find(uint64_t hash, std::string_view key) const {
  auto it = heads_.find(hash);
  if (it == heads_.end()) return -1;
  for (int e = it->second; e >= 0;
       e = entries_[static_cast<std::size_t>(e)].next) {
    if (entries_[static_cast<std::size_t>(e)].key == key) return e;
  }
  return -1;
}

std::optional<double> CostCache::Lookup(uint64_t hash, std::string_view key) {
  const int e = Find(hash, key);
  if (e < 0) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return entries_[static_cast<std::size_t>(e)].cost;
}

void CostCache::Insert(uint64_t hash, std::string_view key, double cost) {
  if (entries_.size() >= max_entries_ || Find(hash, key) >= 0) return;
  const int index = static_cast<int>(entries_.size());
  auto [head, fresh] = heads_.try_emplace(hash, index);
  entries_.push_back(
      Entry{std::string(key), cost, fresh ? -1 : head->second});
  if (!fresh) head->second = index;
}

}  // namespace dimsum
