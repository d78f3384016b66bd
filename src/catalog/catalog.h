#ifndef DIMSUM_CATALOG_CATALOG_H_
#define DIMSUM_CATALOG_CATALOG_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/relation.h"
#include "common/check.h"
#include "common/ids.h"

namespace dimsum {

/// How a relation's tuples are partitioned across its shard sites.
/// kRange splits the key domain into contiguous intervals (shard k holds
/// tuples [floor(kN/K), floor((k+1)N/K))), so a selection predicate that
/// bounds the shard key prunes whole shards. kHash spreads tuples by key
/// hash: perfectly balanced, but every shard may hold matches, so range
/// predicates never prune.
enum class ShardScheme { kNone, kRange, kHash };

/// What a (possibly sharded, possibly key-restricted) scan fragment
/// touches: the pages it must read and the tuples it emits after the
/// key-range restriction. Computed by Catalog::ScanExtent and used
/// identically by the executor, the cost model, and cardinality
/// estimation so the three never disagree about fragment sizes.
struct ScanSlice {
  int64_t pages = 0;
  int64_t tuples = 0;
};

/// System catalog: relations, their placement on servers, and the clients'
/// disk-cache state.
///
/// Per the paper: the primary copy of each relation resides on a single
/// server (no declustering); clients store no primary copies; client
/// caching holds a contiguous prefix of each relation on a client's local
/// disk. The paper models one client site; the catalog generalizes to
/// `num_clients` client sites (sites 0..num_clients-1), each with its own
/// per-relation cached fraction, and to multi-copy placement: a relation
/// holds an ordered replica set of server sites. The first copy placed is
/// the *primary* (the paper's single-copy behaviour falls out at
/// replication degree 1); further PlaceRelation calls add replicas.
class Catalog {
 public:
  explicit Catalog(int num_clients = 1) : num_clients_(num_clients) {
    DIMSUM_CHECK_GE(num_clients, 1);
  }

  int num_clients() const { return num_clients_; }

  /// True for sites holding a client role under this catalog's layout.
  bool IsClientSite(SiteId site) const {
    return site >= 0 && site < num_clients_;
  }

  /// Registers a relation; returns its id.
  RelationId AddRelation(std::string name, int64_t num_tuples,
                         int tuple_bytes) {
    const RelationId id = static_cast<RelationId>(relations_.size());
    relations_.push_back(
        Relation{id, std::move(name), num_tuples, tuple_bytes});
    replica_sites_.emplace_back();
    cached_fractions_.emplace_back(num_clients_, 0.0);
    shard_schemes_.push_back(ShardScheme::kNone);
    shard_sites_.emplace_back();
    shard_replication_.push_back(1);
    return id;
  }

  int64_t num_relations() const {
    return static_cast<int64_t>(relations_.size());
  }

  const Relation& relation(RelationId id) const {
    DIMSUM_CHECK_GE(id, 0);
    DIMSUM_CHECK_LT(id, num_relations());
    return relations_[id];
  }

  /// Places a copy of the relation on `server`. The first placement sets
  /// the primary copy; subsequent placements add replicas (placing on a
  /// site already holding a copy is a no-op). Must be a server site.
  void PlaceRelation(RelationId id, SiteId server) {
    DIMSUM_CHECK_GE(server, num_clients_)
        << "site " << server << " is a client; copies live on servers";
    MutableEntry(id);
    DIMSUM_CHECK(!sharded(id))
        << "relation " << id << " is sharded; whole-relation placement and "
        << "sharding are mutually exclusive";
    for (const SiteId site : replica_sites_[id]) {
      if (site == server) return;
    }
    replica_sites_[id].push_back(server);
  }

  /// Migrates the relation: drops every existing copy and leaves a single
  /// primary copy on `server`.
  void MoveRelation(RelationId id, SiteId server) {
    DIMSUM_CHECK_GE(server, num_clients_)
        << "site " << server << " is a client; copies live on servers";
    MutableEntry(id);
    DIMSUM_CHECK(!sharded(id))
        << "relation " << id << " is sharded; MoveRelation applies to "
        << "whole-relation copies only";
    replica_sites_[id].clear();
    replica_sites_[id].push_back(server);
  }

  SiteId PrimarySite(RelationId id) const {
    return ReplicaSites(id).front();
  }

  /// All server sites holding a copy, in placement order (primary first).
  const std::vector<SiteId>& ReplicaSites(RelationId id) const {
    DIMSUM_CHECK_GE(id, 0);
    DIMSUM_CHECK_LT(id, num_relations());
    DIMSUM_CHECK(!replica_sites_[id].empty())
        << "relation " << id << " has not been placed";
    return replica_sites_[id];
  }

  int NumReplicas(RelationId id) const {
    return static_cast<int>(ReplicaSites(id).size());
  }

  /// Site of the `index`-th copy. Indexes wrap modulo the replica count,
  /// so a plan annotated under one replication degree stays bindable under
  /// another (degree-1 catalogs always resolve to the primary).
  SiteId ReplicaSite(RelationId id, int index) const {
    const std::vector<SiteId>& copies = ReplicaSites(id);
    DIMSUM_CHECK_GE(index, 0);
    return copies[static_cast<std::size_t>(index) % copies.size()];
  }

  /// True when any relation holds more than one copy.
  bool replicated() const {
    for (const std::vector<SiteId>& copies : replica_sites_) {
      if (copies.size() > 1) return true;
    }
    return false;
  }

  /// Horizontally shards the relation across `sites`: shard k's primary
  /// copy lives at sites[k], and copy r of shard k at
  /// sites[(k + r) % K] (chained declustering), so `replication` > 1
  /// survives single-site loss without doubling any one site's load.
  /// Range scheme: shard k holds tuples [floor(kN/K), floor((k+1)N/K)).
  /// Hash scheme: same tuple counts, but key ranges do not prune.
  /// Sharding excludes whole-relation placement and client caching: the
  /// relation must be unplaced with all cached fractions 0, and stays
  /// that way (client scans of a sharded relation fault every page in
  /// from the shard owners).
  void ShardRelation(RelationId id, std::vector<SiteId> sites,
                     ShardScheme scheme, int replication = 1) {
    MutableEntry(id);
    DIMSUM_CHECK(scheme != ShardScheme::kNone);
    DIMSUM_CHECK(!sharded(id)) << "relation " << id << " is already sharded";
    DIMSUM_CHECK(replica_sites_[id].empty())
        << "relation " << id << " already has whole-relation copies";
    DIMSUM_CHECK(!sites.empty());
    for (const SiteId site : sites) {
      DIMSUM_CHECK_GE(site, num_clients_)
          << "site " << site << " is a client; shards live on servers";
    }
    for (const double fraction : cached_fractions_[id]) {
      DIMSUM_CHECK_EQ(fraction, 0.0)
          << "relation " << id << " is client-cached; sharded relations "
          << "cannot be cached";
    }
    DIMSUM_CHECK_GE(replication, 1);
    DIMSUM_CHECK_LE(replication, static_cast<int>(sites.size()));
    shard_schemes_[id] = scheme;
    shard_sites_[id] = std::move(sites);
    shard_replication_[id] = replication;
  }

  bool sharded(RelationId id) const {
    DIMSUM_CHECK_GE(id, 0);
    DIMSUM_CHECK_LT(id, num_relations());
    return shard_schemes_[id] != ShardScheme::kNone;
  }

  /// True when any relation is sharded.
  bool sharded() const {
    for (const ShardScheme scheme : shard_schemes_) {
      if (scheme != ShardScheme::kNone) return true;
    }
    return false;
  }

  ShardScheme Scheme(RelationId id) const {
    DIMSUM_CHECK_GE(id, 0);
    DIMSUM_CHECK_LT(id, num_relations());
    return shard_schemes_[id];
  }

  /// Shard count; 1 for unsharded relations (the whole relation is one
  /// logical "shard" as far as fragment math goes).
  int NumShards(RelationId id) const {
    return sharded(id) ? static_cast<int>(shard_sites_[id].size()) : 1;
  }

  /// Copies held of each shard (chained onto the next sites). 1 for
  /// unsharded relations.
  int ShardReplication(RelationId id) const {
    DIMSUM_CHECK_GE(id, 0);
    DIMSUM_CHECK_LT(id, num_relations());
    return shard_replication_[id];
  }

  /// Site of copy `replica` of shard `shard`. The replica index wraps
  /// modulo the replication degree (mirroring ReplicaSite), so plans
  /// annotated under one degree stay bindable under another.
  SiteId ShardSite(RelationId id, int shard, int replica = 0) const {
    DIMSUM_CHECK(sharded(id)) << "relation " << id << " is not sharded";
    const std::vector<SiteId>& sites = shard_sites_[id];
    DIMSUM_CHECK_GE(shard, 0);
    DIMSUM_CHECK_LT(shard, static_cast<int>(sites.size()));
    DIMSUM_CHECK_GE(replica, 0);
    const int wrapped = replica % shard_replication_[id];
    return sites[(static_cast<std::size_t>(shard) + wrapped) % sites.size()];
  }

  /// How many distinct copies a scan of this relation can choose from:
  /// the shard replication degree when sharded, otherwise the replica
  /// count. This is the value the optimizer's replica moves and the
  /// submission-time balancer enumerate.
  int ScanCopies(RelationId id) const {
    return sharded(id) ? shard_replication_[id] : NumReplicas(id);
  }

  /// First tuple index of shard `shard` (range scheme order; the hash
  /// scheme reuses the same counts for balance).
  int64_t ShardFirstTuple(RelationId id, int shard) const {
    DIMSUM_CHECK_GE(shard, 0);
    const int shards = NumShards(id);
    DIMSUM_CHECK_LE(shard, shards);
    return static_cast<int64_t>(shard) * relation(id).num_tuples / shards;
  }

  /// Tuples held by shard `shard`.
  int64_t ShardNumTuples(RelationId id, int shard) const {
    return ShardFirstTuple(id, shard + 1) - ShardFirstTuple(id, shard);
  }

  /// Pages held by shard `shard` (ceiling over its tuple count).
  int64_t ShardPages(RelationId id, int shard, int page_bytes) const {
    const int64_t per_page = relation(id).TuplesPerPage(page_bytes);
    return (ShardNumTuples(id, shard) + per_page - 1) / per_page;
  }

  /// Pages read and tuples emitted by a scan fragment of the relation.
  /// `shard` < 0 means the whole (unsharded view of the) relation;
  /// [key_lo, key_hi) is the pushed-down shard-key restriction as a
  /// fraction of the key domain (0..1 = unrestricted). Reads are
  /// shard-granular: a fragment reads ALL of its shard's pages (or all
  /// relation pages when shard < 0) unless the key range is empty —
  /// pruning happens by dropping whole shards at plan expansion, never by
  /// sub-extent reads. Range fragments emit the tuples whose index falls
  /// in the restriction; hash fragments hold a uniform sample of every
  /// key, so they emit the restricted *fraction* of their tuples.
  ScanSlice ScanExtent(RelationId id, int shard, double key_lo, double key_hi,
                       int page_bytes) const {
    const Relation& rel = relation(id);
    ScanSlice slice;
    if (key_hi <= key_lo) return slice;  // empty fragment: reads nothing
    const int64_t lo = std::llround(key_lo * static_cast<double>(rel.num_tuples));
    const int64_t hi = std::llround(key_hi * static_cast<double>(rel.num_tuples));
    if (shard < 0) {
      slice.pages = rel.Pages(page_bytes);
      slice.tuples = hi > lo ? hi - lo : 0;
      return slice;
    }
    DIMSUM_CHECK(sharded(id)) << "relation " << id << " is not sharded";
    slice.pages = ShardPages(id, shard, page_bytes);
    if (Scheme(id) == ShardScheme::kHash) {
      slice.tuples = std::llround(
          (key_hi - key_lo) * static_cast<double>(ShardNumTuples(id, shard)));
    } else {
      const int64_t first = ShardFirstTuple(id, shard);
      const int64_t last = ShardFirstTuple(id, shard + 1);
      const int64_t from = lo > first ? lo : first;
      const int64_t to = hi < last ? hi : last;
      slice.tuples = to > from ? to - from : 0;
    }
    return slice;
  }

  /// Sets the fraction [0,1] of the relation cached (contiguous prefix) on
  /// `client`'s disk.
  void SetCachedFraction(RelationId id, SiteId client, double fraction) {
    DIMSUM_CHECK_GE(fraction, 0.0);
    DIMSUM_CHECK_LE(fraction, 1.0);
    CheckClient(client);
    MutableEntry(id);
    DIMSUM_CHECK(!sharded(id) || fraction == 0.0)
        << "relation " << id << " is sharded; sharded relations cannot be "
        << "client-cached";
    cached_fractions_[id][client] = fraction;
  }
  /// Single-client convenience: sets the fraction at client site 0.
  void SetCachedFraction(RelationId id, double fraction) {
    SetCachedFraction(id, kClientSite, fraction);
  }

  double CachedFraction(RelationId id, SiteId client = kClientSite) const {
    DIMSUM_CHECK_GE(id, 0);
    DIMSUM_CHECK_LT(id, num_relations());
    CheckClient(client);
    return cached_fractions_[id][client];
  }

  /// Number of pages of the relation resident in `client`'s cache (the
  /// first `round(fraction * pages)` pages). Rounded to the nearest page,
  /// half up: the intent of "fraction f cached" is the closest whole page
  /// count, and naive truncation loses a page to floating-point error
  /// (0.7 * 10 pages must be 7, not 6).
  int64_t CachedPages(RelationId id, SiteId client, int page_bytes) const {
    const int64_t pages = relation(id).Pages(page_bytes);
    CheckClient(client);
    return std::llround(cached_fractions_[id][client] *
                        static_cast<double>(pages));
  }
  /// Single-client convenience: cached pages at client site 0.
  int64_t CachedPages(RelationId id, int page_bytes) const {
    return CachedPages(id, kClientSite, page_bytes);
  }

 private:
  void MutableEntry(RelationId id) {
    DIMSUM_CHECK_GE(id, 0);
    DIMSUM_CHECK_LT(id, num_relations());
  }
  void CheckClient(SiteId client) const {
    DIMSUM_CHECK_GE(client, 0);
    DIMSUM_CHECK_LT(client, num_clients_);
  }

  int num_clients_;
  std::vector<Relation> relations_;
  /// replica_sites_[relation]: server sites holding a copy, placement
  /// order; front() is the primary. Empty until placed.
  std::vector<std::vector<SiteId>> replica_sites_;
  /// cached_fractions_[relation][client].
  std::vector<std::vector<double>> cached_fractions_;
  /// shard_schemes_[relation]: kNone unless ShardRelation was called.
  std::vector<ShardScheme> shard_schemes_;
  /// shard_sites_[relation]: server site of shard k's primary at index k;
  /// copy r of shard k chains to index (k + r) % K. Empty when unsharded.
  std::vector<std::vector<SiteId>> shard_sites_;
  /// shard_replication_[relation]: copies per shard (1 when unsharded).
  std::vector<int> shard_replication_;
};

}  // namespace dimsum

#endif  // DIMSUM_CATALOG_CATALOG_H_
