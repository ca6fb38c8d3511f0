#include "synth/candidates.h"

#include <algorithm>
#include <bit>

#include "support/errors.h"
#include "support/parallel.h"
#include "synth/arena.h"

namespace phls {

namespace {

/// Combos per flush of the bucketed rebuild: bounds the batch buffer
/// (a 10k-op rebuild visits ~10^8 combos -- far too many to gather at
/// once) while keeping each parallel fan-out coarse enough to amortise
/// thread startup.
constexpr std::size_t combo_chunk = 1 << 16;

/// Below this batch size the fan-out overhead dominates: score inline.
constexpr std::size_t min_parallel_batch = 128;

} // namespace

std::uint64_t candidate_store::combo_key(bool is_pair, int x, int second, int module)
{
    return pack_candidate_key(is_pair, x, second, module);
}

candidate_store::pick_key candidate_store::key_of(const entry& e)
{
    pick_key k;
    k.saving = e.cand.saving;
    k.is_join = !e.is_pair();
    k.a = e.cand.a.value();
    k.b = e.is_pair() ? e.cand.b.value() : -1;
    k.tie = e.is_pair() ? e.cand.module.value() : e.cand.instance;
    return k;
}

candidate_store::pick128 candidate_store::pack_pick(const pick_key& k)
{
    // Finite-double ordering trick: flip the sign bit of non-negatives
    // and all bits of negatives to get an order-preserving uint64, then
    // complement for the descending saving order.  Savings are sums and
    // differences of module areas, never NaN; -0.0 is normalised so the
    // two zero encodings cannot split.
    const double s = k.saving == 0.0 ? 0.0 : k.saving;
    std::uint64_t u = std::bit_cast<std::uint64_t>(s);
    u = (u >> 63) != 0 ? ~u : (u | 0x8000000000000000ull);

    // 1 + 3 x 21 bits: joins sort before pairs; a, b, tie ascend.  b and
    // tie are offset by one so the join sentinel -1 packs smallest.
    constexpr int field_bits = 21;
    constexpr std::uint64_t field_max = (1ull << field_bits) - 1;
    const std::uint64_t a = static_cast<std::uint64_t>(k.a + 1);
    const std::uint64_t b = static_cast<std::uint64_t>(k.b + 1);
    const std::uint64_t tie = static_cast<std::uint64_t>(k.tie + 1);
    check(a <= field_max && b <= field_max && tie <= field_max,
          "candidate_store: graph exceeds the flat pick-index field width");

    pick128 p;
    p.hi = ~u;
    p.lo = (static_cast<std::uint64_t>(k.is_join ? 0 : 1) << 63) |
           (a << (2 * field_bits)) | (b << field_bits) | tie;
    return p;
}

std::size_t candidate_store::lookup(std::uint64_t key) const
{
    const auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    const auto kit = std::lower_bound(
        keys_.begin(), keys_.end(), key,
        [](const std::pair<std::uint64_t, std::uint32_t>& e, std::uint64_t k) {
            return e.first < k;
        });
    if (kit != keys_.end() && kit->first == key && alive_[kit->second] != 0)
        return kit->second;
    return npos;
}

void candidate_store::kill(std::size_t pos)
{
    alive_[pos] = 0;
    --live_;
    if (pos >= core_size_) {
        order_.erase(key_of(pool_[pos]));
        index_.erase(pool_[pos].key);
    }
}

void candidate_store::append(entry e)
{
    const std::size_t pos = pool_.size();
    check(pos < 0xFFFFFFFFull, "candidate_store: flat pool too large");
    order_.emplace(key_of(e), e.key);
    index_.emplace(e.key, pos);
    pool_.push_back(std::move(e));
    alive_.push_back(1);
    ++live_;
    index_refs(static_cast<std::uint32_t>(pos));
}

void candidate_store::index_refs(std::uint32_t pos)
{
    const entry& e = pool_[pos];
    by_node_[e.x().index()].push_back(pos);
    if (e.is_pair()) by_node_[e.y().index()].push_back(pos);
    add_slot_ref(pos, e.cand.t_a);
    if (e.is_pair()) add_slot_ref(pos, e.cand.t_b);
}

void candidate_store::add_slot_ref(std::uint32_t pos, int start)
{
    const std::size_t b = bucket_of(start, pool_[pos].cand.module);
    if (b >= slots_.size()) slots_.resize(b + 1);
    slots_[b].push_back(pos);
}

void candidate_store::freeze_core()
{
    // Two bulk sorts over flat arrays replace one tree/hash insert per
    // entry, which dominated a map-backed rebuild at 10k ops.
    core_size_ = pool_.size();
    live_ = core_size_;
    stale_refs_ = 0;
    cursor_ = 0;
    check(core_size_ <= 0xFFFFFFFFull, "candidate_store: flat core too large");
    sorted_.resize(core_size_);
    keys_.resize(core_size_);
    for (std::size_t i = 0; i < core_size_; ++i) {
        sorted_[i] = {pack_pick(key_of(pool_[i])), static_cast<std::uint32_t>(i)};
        keys_[i] = {pool_[i].key, static_cast<std::uint32_t>(i)};
    }
    std::sort(sorted_.begin(), sorted_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::sort(keys_.begin(), keys_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    // Node lists and slot buckets, sized by a counting pass so the core
    // refs carry no growth slack.
    std::vector<std::size_t> node_refs(by_node_.size(), 0);
    std::vector<std::size_t> slot_refs;
    const auto count_slot = [&](int start, module_id m) {
        const std::size_t b = bucket_of(start, m);
        if (b >= slot_refs.size()) slot_refs.resize(b + 1, 0);
        ++slot_refs[b];
    };
    for (const entry& e : pool_) {
        ++node_refs[e.x().index()];
        count_slot(e.cand.t_a, e.cand.module);
        if (e.is_pair()) {
            ++node_refs[e.y().index()];
            count_slot(e.cand.t_b, e.cand.module);
        }
    }
    for (std::size_t v = 0; v < by_node_.size(); ++v) {
        by_node_[v].clear();
        by_node_[v].reserve(node_refs[v]);
    }
    for (std::vector<std::uint32_t>& refs : slots_) refs.clear();
    slots_.resize(std::max(slots_.size(), slot_refs.size()));
    for (std::size_t b = 0; b < slot_refs.size(); ++b) slots_[b].reserve(slot_refs[b]);
    for (std::size_t i = 0; i < core_size_; ++i) index_refs(static_cast<std::uint32_t>(i));
}

void candidate_store::compact()
{
    std::size_t w = 0;
    for (std::size_t i = 0; i < pool_.size(); ++i) {
        if (alive_[i] == 0) continue;
        if (w != i) pool_[w] = std::move(pool_[i]);
        ++w;
    }
    pool_.resize(w);
    alive_.assign(w, 1);
    order_.clear();
    index_.clear();
    freeze_core();
    ++stats_.compactions;
}

void candidate_store::build_module_screen(const compat_inputs& in)
{
    screen_.assign(static_cast<std::size_t>(op_kind_count * op_kind_count), {});
    for (const op_kind a : all_op_kinds()) {
        for (const op_kind b : all_op_kinds()) {
            std::vector<module_id>& mods =
                screen_[static_cast<std::size_t>(op_kind_index(a) * op_kind_count +
                                                 op_kind_index(b))];
            for (int mi = 0; mi < in.lib->size(); ++mi) {
                const fu_module& m = in.lib->module(module_id(mi));
                // Exactly score_pair()'s static prechecks: modules that
                // fail them can never yield a candidate and are skipped
                // without touching the store.
                if (!m.supports(a) || !m.supports(b)) continue;
                if (m.power > in.max_power + power_tracker::tolerance) continue;
                mods.push_back(module_id(mi));
            }
        }
    }
}

const std::vector<module_id>& candidate_store::pair_modules(op_kind a, op_kind b) const
{
    return screen_[static_cast<std::size_t>(op_kind_index(a) * op_kind_count +
                                            op_kind_index(b))];
}

void candidate_store::store_entry(entry e)
{
    const std::size_t pos = lookup(e.key);
    if (pos != npos) {
        entry& slot = pool_[pos];
        const pick_key before = key_of(slot);
        const pick_key after = key_of(e);
        if (!(before < after) && !(after < before)) {
            // Same rank: the core pick order (resp. the overlay map key)
            // stays valid, so replace in place.  A moved slot is filed
            // under its new bucket; the old bucket's ref goes stale
            // (skipped by apply_accept, dropped at compaction).
            const int old_a = slot.cand.t_a;
            const int old_b = slot.cand.t_b;
            slot = std::move(e);
            const auto refile = [&](int start) {
                add_slot_ref(static_cast<std::uint32_t>(pos), start);
                ++stale_refs_;
            };
            if (slot.cand.t_a != old_a) refile(slot.cand.t_a);
            if (slot.is_pair() && slot.cand.t_b != old_b) refile(slot.cand.t_b);
            return;
        }
        kill(pos);
    }
    append(std::move(e));
}

candidate_store::scored candidate_store::score_combo(const compat_inputs& in,
                                                     const combo& c) const
{
    scored out;
    if (c.is_pair) {
        out.key = combo_key(true, c.x.value(), c.y.value(), c.module.value());
        // A pair's saving does not depend on its times, and the reference
        // erases saving < 0 after timing it -- the identical expression
        // decides before the slot probes run.
        const fu_module& m = in.lib->module(c.module);
        const double saving = standalone_area(in, c.x) + standalone_area(in, c.y) - m.area -
                              mux_penalty(m, *in.costs);
        if (saving < 0.0) return out;
        const candidate_score s = score_pair(in, c.x, c.y, c.module);
        if (!s.ok || s.cand.saving < 0.0) return out;
        out.keep = true;
        out.e.key = out.key;
        out.e.cand = s.cand;
        return out;
    }
    const fu_instance& inst = (*in.instances)[static_cast<std::size_t>(c.instance)];
    out.key = combo_key(false, c.x.value(), inst.index, inst.module.value());
    const fu_module& m = in.lib->module(inst.module);
    if (standalone_area(in, c.x) - mux_penalty(m, *in.costs) < 0.0) return out;
    const candidate_score s =
        score_join(in, c.x, inst, busy_[static_cast<std::size_t>(inst.index)]);
    if (!s.ok || s.cand.saving < 0.0) return out;
    out.keep = true;
    out.e.key = out.key;
    out.e.cand = s.cand;
    return out;
}

void candidate_store::apply_scored(scored&& s)
{
    if (rebuilding_) {
        // The bucketed generation emits every combo key exactly once, so
        // the rebuild appends without lookups; the indices are
        // bulk-sorted once afterwards.
        if (s.keep) {
            pool_.push_back(std::move(s.e));
            alive_.push_back(1);
        }
        return;
    }
    if (s.keep) {
        store_entry(std::move(s.e));
        return;
    }
    const std::size_t pos = lookup(s.key);
    if (pos != npos) kill(pos);
}

void candidate_store::score_batch(const compat_inputs& in, std::vector<combo>& combos)
{
    if (threads_ <= 1 || combos.size() < min_parallel_batch) {
        for (const combo& c : combos) apply_scored(score_combo(in, c));
    } else {
        // Scoring is read-only over the scheduling state and the busy
        // table; the only lazily built structure it touches is the power
        // tracker's headroom tree, forced here before the fan-out.
        in.committed_power->prepare_probes();
        std::vector<scored> results(combos.size());
        parallel_for(combos.size(), threads_,
                     [&](std::size_t i) { results[i] = score_combo(in, combos[i]); });
        for (scored& s : results) apply_scored(std::move(s));
    }
    combos.clear();
}

void candidate_store::rebuild(const compat_inputs& in)
{
    check(in.g && in.lib && in.costs && in.reach && in.windows && in.fixed &&
              in.committed && in.instances && in.committed_power && in.assignment &&
              in.arena,
          "compat_inputs is incomplete (the candidate store needs an arena)");
    pool_.clear();
    index_.clear();
    order_.clear();
    sorted_.clear();
    keys_.clear();
    alive_.clear();
    by_node_.assign(static_cast<std::size_t>(in.g->node_count()), {});
    slots_.clear();
    modules_ = in.lib->size();
    core_size_ = 0;
    live_ = 0;
    cursor_ = 0;
    build_module_screen(in);

    busy_.clear();
    busy_.reserve(in.instances->size());
    for (const fu_instance& inst : *in.instances) busy_.push_back(busy_intervals(in, inst));

    // Bucketed generation: one block per unordered kind pair, with
    // blocks whose module screen is empty skipped wholesale.  The
    // store is keyed, so landing the same combo set in a different
    // order from the reference free_ops^2 sweep yields the same
    // content; batches flush in chunks to bound the buffer and feed
    // the intra-point fan-out.
    rebuilding_ = true;
    std::vector<combo> combos;
    combos.reserve(combo_chunk);
    const auto queue = [&](combo c) {
        combos.push_back(c);
        if (combos.size() >= combo_chunk) score_batch(in, combos);
    };
    for (int ka = 0; ka < op_kind_count; ++ka) {
        const std::vector<node_id>& bucket_a = in.arena->free_of_kind(ka);
        if (bucket_a.empty()) continue;
        for (int kb = ka; kb < op_kind_count; ++kb) {
            const std::vector<module_id>& mods =
                screen_[static_cast<std::size_t>(ka * op_kind_count + kb)];
            if (mods.empty()) continue;
            const std::vector<node_id>& bucket_b = in.arena->free_of_kind(kb);
            combo c;
            c.is_pair = true;
            if (ka == kb) {
                for (std::size_t i = 0; i < bucket_a.size(); ++i)
                    for (std::size_t j = i + 1; j < bucket_a.size(); ++j) {
                        c.x = bucket_a[i];
                        c.y = bucket_a[j];
                        for (const module_id m : mods) {
                            c.module = m;
                            queue(c);
                        }
                    }
            } else {
                for (const node_id u : bucket_a)
                    for (const node_id w : bucket_b) {
                        c.x = u < w ? u : w;
                        c.y = u < w ? w : u;
                        for (const module_id m : mods) {
                            c.module = m;
                            queue(c);
                        }
                    }
            }
        }
    }
    combo c;
    c.is_pair = false;
    for (node_id v : in.g->node_ids()) {
        if ((*in.committed)[v.index()]) continue;
        c.x = v;
        for (const fu_instance& inst : *in.instances) {
            c.instance = inst.index;
            c.module = inst.module;
            queue(c);
        }
    }
    score_batch(in, combos);
    rebuilding_ = false;
    freeze_core();
    built_ = true;
}

const merge_candidate*
candidate_store::best(const std::unordered_set<std::uint64_t>& blacklist) const
{
    // Merge the frozen core (best-first, dead entries skipped) with the
    // overlay map.  Ranks are unique across both -- an update tombstones
    // the core copy before the overlay copy exists -- so the strict
    // comparison below decides every head-to-head.
    while (cursor_ < sorted_.size() && alive_[sorted_[cursor_].second] == 0) ++cursor_;
    std::size_t ci = cursor_;
    auto oit = order_.begin();
    while (true) {
        while (ci < sorted_.size() && alive_[sorted_[ci].second] == 0) ++ci;
        const bool have_core = ci < sorted_.size();
        const bool have_overlay = oit != order_.end();
        if (!have_core && !have_overlay) return nullptr;
        bool take_core = have_core;
        if (have_core && have_overlay) take_core = sorted_[ci].first < pack_pick(oit->first);
        const entry& e =
            take_core ? pool_[sorted_[ci].second] : pool_[index_.at(oit->second)];
        if (blacklist.empty() || blacklist.count(e.cand.packed_key()) == 0) return &e.cand;
        if (take_core)
            ++ci;
        else
            ++oit;
    }
}

void candidate_store::apply_accept(const compat_inputs& in, const merge_candidate& chosen,
                                   const time_windows& before)
{
    const int n = in.g->node_count();
    const bool pair = chosen.type == merge_candidate::merge_type::pair;
    const int d = in.lib->module(chosen.module).latency;

    // 1. Per-instance busy intervals, maintained on bind: a pair merge
    // created one instance (the last one), a join extended an existing
    // one.
    const auto insert_sorted = [](std::vector<std::pair<int, int>>& busy, int t, int e) {
        busy.insert(std::lower_bound(busy.begin(), busy.end(), std::make_pair(t, e)),
                    {t, e});
    };
    int changed_instance = -1;
    if (pair) {
        check(!in.instances->empty(), "pair merge without a created instance");
        changed_instance = in.instances->back().index;
        std::vector<std::pair<int, int>> busy;
        insert_sorted(busy, chosen.t_a, chosen.t_a + d);
        insert_sorted(busy, chosen.t_b, chosen.t_b + d);
        check(static_cast<int>(busy_.size()) == changed_instance,
              "busy table out of sync with the instance list");
        busy_.push_back(std::move(busy));
    } else {
        changed_instance = chosen.instance;
        insert_sorted(busy_[static_cast<std::size_t>(changed_instance)], chosen.t_a,
                      chosen.t_a + d);
    }

    // 2. Changed-node closure: the committed ops plus every operator
    // whose window moved; a candidate reads at most its own ops and
    // their direct neighbours, so `affected` (changed or adjacent to a
    // change) is exactly the re-score trigger set.  After the backtrack
    // lock every operator is pinned, windows stop moving and this set
    // collapses to the merged ops' neighbourhood.
    std::vector<char> touched(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v)
        if (before.s_min[static_cast<std::size_t>(v)] !=
                in.windows->s_min[static_cast<std::size_t>(v)] ||
            before.s_max[static_cast<std::size_t>(v)] !=
                in.windows->s_max[static_cast<std::size_t>(v)])
            touched[static_cast<std::size_t>(v)] = 1;
    touched[chosen.a.index()] = 1;
    if (pair) touched[chosen.b.index()] = 1;
    std::vector<char> affected(static_cast<std::size_t>(n), 0);
    for (node_id v : in.g->node_ids()) {
        char hit = touched[v.index()];
        if (!hit)
            for (node_id p : in.g->preds(v))
                if (touched[p.index()]) { hit = 1; break; }
        if (!hit)
            for (node_id s : in.g->succs(v))
                if (touched[s.index()]) { hit = 1; break; }
        affected[v.index()] = hit;
    }

    // 3. Drop candidates of the now-committed ops; revalidate survivors
    // whose cached slots the new reservations overlap.  The
    // revalidation is one fits() probe per cached slot, not a re-score:
    // the profile only grows, so slots before a cached minimum stay
    // infeasible, the losing pair order can only get worse, and a slot
    // that still fits leaves the whole cached result unchanged.  Only
    // broken slots go to the re-score list.
    const std::pair<int, int> res_a{chosen.t_a, chosen.t_a + d};
    const std::pair<int, int> res_b =
        pair ? std::pair<int, int>{chosen.t_b, chosen.t_b + d} : std::pair<int, int>{0, 0};
    const auto generation_covers = [&](const entry& e) {
        if (e.is_pair()) return affected[e.x().index()] || affected[e.y().index()] ? true : false;
        return (affected[e.x().index()] ? true : false) || e.cand.instance == changed_instance;
    };
    // The committed ops' node lists name their entries, and a (start
    // cycle, module) bucket holds slots of one interval and one power, so
    // a single fits() probe per overlapping bucket decides all of its
    // entries (refs whose entry has since moved to another start are
    // stale and skipped).
    const auto drop_node = [&](node_id v) {
        std::vector<std::uint32_t>& refs = by_node_[v.index()];
        for (const std::uint32_t pos : refs)
            if (alive_[pos] != 0) kill(pos);
        std::vector<std::uint32_t>().swap(refs); // committed ops get no new entries
    };
    drop_node(chosen.a);
    if (pair) drop_node(chosen.b);

    std::vector<std::uint32_t> hits;
    const auto probe = [&](std::pair<int, int> res) {
        for (int mi = 0; mi < modules_; ++mi) {
            const fu_module& m = in.lib->module(module_id(mi));
            // [t, t + latency) overlaps [res.first, res.second).
            for (int t = std::max(0, res.first - m.latency + 1); t < res.second; ++t) {
                const std::size_t b = bucket_of(t, module_id(mi));
                if (b >= slots_.size() || slots_[b].empty()) continue;
                if (in.committed_power->fits(t, m.latency, m.power)) continue;
                for (const std::uint32_t pos : slots_[b]) {
                    const entry& e = pool_[pos];
                    const bool current =
                        e.cand.t_a == t || (e.is_pair() && e.cand.t_b == t);
                    if (alive_[pos] != 0 && current) hits.push_back(pos);
                }
            }
        }
    };
    probe(res_a);
    if (pair) probe(res_b);
    // A pair can sit in two broken buckets, and the two reservations'
    // ranges can share buckets.
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    std::vector<entry> broken;
    for (const std::uint32_t pos : hits)
        if (!generation_covers(pool_[pos])) broken.push_back(pool_[pos]);
    stats_.broken_slots += static_cast<long long>(broken.size());

    // 4. Generative re-score of everything touching an affected node or
    // the changed instance -- including combos with no stored entry (a
    // window move can make a previously infeasible candidate valid).
    // O(|affected| * free), so a post-lock accept (affected = the merged
    // ops' neighbourhood) costs a sliver of one full enumeration.
    std::vector<node_id> free_ops;
    for (node_id v : in.g->node_ids())
        if (!(*in.committed)[v.index()]) free_ops.push_back(v);
    const fu_instance& changed =
        (*in.instances)[static_cast<std::size_t>(changed_instance)];
    // The re-score set is gathered first and scored as one batch: every
    // combo is distinct (pairs are claimed by their smaller affected op,
    // broken slots are unaffected by construction), so scoring is pure
    // and fans out over intra_threads with a fixed application order.
    std::vector<combo> combos;
    const auto queue_pair = [&](node_id x, node_id y, module_id m) {
        combo c;
        c.is_pair = true;
        c.x = x;
        c.y = y;
        c.module = m;
        combos.push_back(c);
    };
    const auto queue_join = [&](node_id x, const fu_instance& inst) {
        combo c;
        c.is_pair = false;
        c.x = x;
        c.instance = inst.index;
        c.module = inst.module;
        combos.push_back(c);
    };
    for (const node_id u : free_ops) {
        if (!affected[u.index()]) {
            queue_join(u, changed);
            continue;
        }
        for (const node_id w : free_ops) {
            if (w == u) continue;
            // A both-affected pair is handled once, by its smaller op.
            if (affected[w.index()] && w < u) continue;
            const node_id x = u < w ? u : w;
            const node_id y = u < w ? w : u;
            for (const module_id m : pair_modules(in.g->kind(x), in.g->kind(y)))
                queue_pair(x, y, m);
        }
        for (const fu_instance& inst : *in.instances) queue_join(u, inst);
    }

    // 5. The broken-slot stragglers (disjoint from step 4 by construction).
    for (const entry& e : broken) {
        if (e.is_pair())
            queue_pair(e.x(), e.y(), e.cand.module);
        else
            queue_join(e.x(), (*in.instances)[static_cast<std::size_t>(e.cand.instance)]);
    }
    score_batch(in, combos);

    // 6. Amortised compaction: the pool stays within twice the live set,
    // and the buckets within about twice the live entries' refs.
    if (pool_.size() - live_ > live_ || stale_refs_ > 2 * live_) compact();
    if (live_ > 0)
        stats_.peak_pool_ratio =
            std::max(stats_.peak_pool_ratio,
                     static_cast<double>(pool_.size()) / static_cast<double>(live_));
}

} // namespace phls
