// Incremental candidate maintenance for the greedy merge loop.
//
// The reference merge loop re-runs enumerate_candidates() -- every free
// op pair x module plus every (free op, instance) join, each fully
// re-timed and re-scored -- after every accepted merge.  Almost all of
// that work is unchanged between iterations: an accepted merge commits
// one or two operations, adds power reservations over their execution
// intervals, and (through the window recompute) moves some operators'
// pasap/palap windows.  A candidate's score is a pure function of
//
//   * the windows / fixed times / module assignment of its own ops and
//     their direct graph neighbours,
//   * (joins) the target instance's committed ops,
//   * the committed power profile over the cycles its slots occupy --
//     within one run the profile only grows, so a cached minimal slot
//     stays minimal unless a new reservation lands on it,
//
// so after an accepted merge only candidates touching a changed node or
// a changed instance are re-scored; candidates whose cached slots a new
// reservation overlaps are revalidated with one fits() probe and
// re-scored only when the slot actually broke.  candidate_store keeps
// every currently valid candidate in a best-first order exactly like
// best_candidate() (saving desc, joins before pairs, smaller ops, then
// enumeration order) and serves the next pick in O(log n).
//
// Per-accept cost: an accept costs what it changed, never a pass over
// the whole pool.
//
//   * the generative re-score: every combo of an `affected` op (changed
//     window, or adjacent to one) plus joins onto the changed instance,
//     O((|affected| + 1) x free ops).  Even with free windows under a
//     power cap `affected` stays small (about 17 ops per accept on a
//     1000-op DAG);
//   * the committed ops' entries, dropped through per-node position
//     lists;
//   * broken-slot revalidation through (start cycle, module) buckets:
//     every entry in a bucket shares one slot interval and one power,
//     so one fits() probe per bucket whose interval overlaps a new
//     reservation decides the whole bucket, and only entries of broken
//     buckets are touched;
//   * amortised compaction: once dead slots outnumber live entries (or
//     stale bucket refs, left by updates that moved a slot, outnumber
//     twice the live entries), the live core and the overlay fold into
//     a fresh sorted core, so the pool never holds more than twice the
//     live entries after an accept.
//
// The store is the fast path's engine inside run_clique_partitioning
// and scores through the struct-of-arrays arena (synth/arena.h).  The
// reference oracle (synthesis_options::reference_kernels) runs the full
// enumerate_candidates() per iteration instead; results are
// bit-identical, which tests assert via synthesis_options::cross_check.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "synth/compat.h"

namespace phls {

/// Best-first store of the currently valid merge candidates.
class candidate_store {
public:
    /// `threads` > 1 fans candidate scoring out over that many workers
    /// (synthesis_options::intra_threads); decisions are identical at
    /// every count.
    explicit candidate_store(int threads = 1) : threads_(threads) {}

    /// Discards everything and scores every candidate of the current
    /// state (used initially and after backtrack-and-lock, which moves
    /// every free operator's fixed time at once).  `in.arena` must be
    /// attached and synced.
    void rebuild(const compat_inputs& in);

    bool built() const { return built_; }
    void invalidate() { built_ = false; }

    /// The candidate the reference pipeline -- enumerate_candidates(),
    /// erase saving < 0 and blacklisted keys, best_candidate() -- would
    /// choose now; nullptr when none.  `blacklist` holds packed_key()s
    /// of rejected candidates (cleared by the caller on accept, exactly
    /// like the reference loop).
    const merge_candidate* best(const std::unordered_set<std::uint64_t>& blacklist) const;

    /// Incremental update after `chosen` was committed (state mutated,
    /// windows advanced from `before` to *in.windows): drops candidates
    /// of the committed ops, re-scores candidates whose inputs changed,
    /// and scores joins onto a pair's newly created instance.  Rejected
    /// decisions need no call -- the rollback restores the scored state
    /// bit-exactly.
    void apply_accept(const compat_inputs& in, const merge_candidate& chosen,
                      const time_windows& before);

    /// Maintenance counters over the store's lifetime (rebuilds included).
    struct counters {
        long long broken_slots = 0; ///< entries re-scored because a slot broke
        long long compactions = 0;  ///< pool compactions
        /// Largest pool size / live entries seen after an accept
        /// (compaction keeps it at or below 2).
        double peak_pool_ratio = 0.0;
    };
    const counters& stats() const { return stats_; }

private:
    struct entry {
        std::uint64_t key = 0; ///< combo key (see combo_key)
        merge_candidate cand;  ///< timed, saving >= 0

        bool is_pair() const { return cand.type == merge_candidate::merge_type::pair; }
        /// The combo's ops in id order (the candidate orders a pair by
        /// dependency); joins use x only.
        node_id x() const { return is_pair() && cand.b < cand.a ? cand.b : cand.a; }
        node_id y() const { return cand.b < cand.a ? cand.a : cand.b; }
    };

    /// Total order equal to best_candidate() + enumeration-order ties:
    /// within equal (saving, type, a, b) the reference keeps the first
    /// enumerated candidate, which is ascending module id for pairs and
    /// ascending instance index for joins.
    struct pick_key {
        double saving = 0.0;
        bool is_join = false;
        int a = -1;
        int b = -1;  ///< pairs: cand.b; joins: -1
        int tie = 0; ///< pairs: module id; joins: instance index

        bool operator<(const pick_key& o) const
        {
            if (saving != o.saving) return saving > o.saving;
            if (is_join != o.is_join) return is_join;
            if (a != o.a) return a < o.a;
            if (b != o.b) return b < o.b;
            return tie < o.tie;
        }
    };

    /// Identity of a combo independent of the dependency-chosen op order
    /// inside the scored candidate (packed_key() orders by (first,
    /// second), which can flip when the state changes).
    static std::uint64_t combo_key(bool is_pair, int x, int second, int module);

    static pick_key key_of(const entry& e);

    /// Modules that can execute both kinds under the cap -- the exact
    /// static prechecks of score_pair(), hoisted so unsupported combos
    /// cost nothing per iteration.
    void build_module_screen(const compat_inputs& in);
    const std::vector<module_id>& pair_modules(op_kind a, op_kind b) const;

    /// One combo to (re-)score: a pair (x < y, module) or a join
    /// (x onto instance).
    struct combo {
        bool is_pair = true;
        node_id x, y;      ///< pair ops, x < y; joins use x only
        int instance = -1; ///< join target
        module_id module;  ///< pair module; joins: the instance module
    };

    /// Scored outcome of one combo.  keep == false means "erase any
    /// stored entry for this key" -- the reference outcome for both an
    /// untimeable combo and a negative saving.
    struct scored {
        std::uint64_t key = 0;
        bool keep = false;
        entry e;
    };

    /// Pure scoring of one combo against the current state: touches no
    /// store state beyond reads of the (frozen during scoring) busy
    /// table, so batches score concurrently.  A time-independent
    /// negative-saving precheck skips the slot probes of combos the
    /// reference path times and then erases.
    scored score_combo(const compat_inputs& in, const combo& c) const;

    /// Installs / updates / removes the entry for one scored combo.
    void apply_scored(scored&& s);

    /// Scores every queued combo -- inline, or fanned out over the
    /// store's worker threads -- then applies the results in combo order
    /// (scoring is pure, so the deferred application is byte-identical
    /// to the sequential score-then-apply interleaving at any thread
    /// count).  Clears the batch.
    void score_batch(const compat_inputs& in, std::vector<combo>& combos);

    /// Installs a kept entry: in place when its rank is unchanged,
    /// otherwise as a new overlay entry over the killed old one.
    void store_entry(entry e);

    /// pick_key packed into two words whose lexicographic order equals
    /// pick_key::operator< exactly (saving's sign-flip trick plus 21-bit
    /// integer fields), so the flat core sorts on machine compares
    /// instead of a five-field comparator.
    struct pick128 {
        std::uint64_t hi = 0;
        std::uint64_t lo = 0;
        bool operator<(const pick128& o) const
        {
            return hi != o.hi ? hi < o.hi : lo < o.lo;
        }
    };
    static pick128 pack_pick(const pick_key& k);

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Position of `key` (overlay first, then the sorted core, dead
    /// entries excluded); npos when absent.
    std::size_t lookup(std::uint64_t key) const;
    /// Erasure: tombstones a core entry, fully removes an overlay entry.
    void kill(std::size_t pos);
    /// Insertion of a new overlay entry.
    void append(entry e);
    /// Adds position `pos` to its ops' node lists and its slots' buckets.
    void index_refs(std::uint32_t pos);
    void add_slot_ref(std::uint32_t pos, int start);
    std::size_t bucket_of(int start, module_id m) const
    {
        return static_cast<std::size_t>(start) * static_cast<std::size_t>(modules_) +
               static_cast<std::size_t>(m.value());
    }
    /// Freezes the whole pool as the sorted core and re-derives every
    /// flat index (pick order, key index, node lists, slot buckets).
    void freeze_core();
    /// Drops dead slots and stale refs, and re-freezes the live entries
    /// as the core.
    void compact();

    bool built_ = false;
    int threads_ = 1;
    /// The rebuild appends every kept entry to `pool_` (combo generation
    /// emits each key exactly once, so no lookups run), then bulk-sorts
    /// two flat indices over the frozen core: `sorted_` (best-first pick
    /// order) and `keys_` (binary-searchable key -> position).
    /// Post-rebuild mutations never reorder the core: an update
    /// tombstones the old position via `alive_` and appends to an
    /// overlay indexed by the `order_`/`index_` maps, and best() merges
    /// the core and overlay streams.  A position keeps its ops and module
    /// while alive, so its node-list refs go stale only when it dies; a
    /// same-rank update can move its slots, filing new bucket refs and
    /// leaving the old ones stale.  Compaction drops both kinds of waste.
    ///
    /// True while a rebuild is generating entries (append-only).
    bool rebuilding_ = false;
    std::size_t core_size_ = 0;
    std::size_t live_ = 0;       ///< alive entries
    std::size_t stale_refs_ = 0; ///< bucket refs to a moved slot
    /// First possibly-alive core rank; dead prefixes are skipped once.
    mutable std::size_t cursor_ = 0;
    std::vector<std::pair<pick128, std::uint32_t>> sorted_; ///< core pick order
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keys_; ///< core key index
    std::vector<char> alive_;
    /// Positions of every entry per op (x and y of a pair).
    std::vector<std::vector<std::uint32_t>> by_node_;
    /// Positions of every cached slot per (start cycle, module) -- see
    /// bucket_of().
    std::vector<std::vector<std::uint32_t>> slots_;
    int modules_ = 0;
    /// Dense entry pool (dead entries tombstoned until compaction).
    std::vector<entry> pool_;
    std::unordered_map<std::uint64_t, std::size_t> index_; ///< overlay key index
    std::map<pick_key, std::uint64_t> order_; ///< overlay, best first
    std::vector<std::vector<module_id>> screen_; ///< kind x kind module lists
    /// Per-instance sorted busy intervals, maintained on bind instead of
    /// rebuilt per candidate per iteration.
    std::vector<std::vector<std::pair<int, int>>> busy_;
    counters stats_;
};

} // namespace phls
