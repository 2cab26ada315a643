#include "automata/lazy.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <unordered_map>

#include "automata/ops.h"
#include "base/hash.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rpqi {

// ---------------------------------------------------------------------------
// LazyDfaFromDfa

LazyDfaFromDfa::LazyDfaFromDfa(Dfa dfa) : dfa_(std::move(dfa)) {
  sink_ = dfa_.NumStates();  // virtual sink id
}

int LazyDfaFromDfa::Step(int state, int symbol) {
  if (state == sink_) return sink_;
  int to = dfa_.Next(state, symbol);
  return to < 0 ? sink_ : to;
}

bool LazyDfaFromDfa::IsAccepting(int state) {
  return state != sink_ && dfa_.IsAccepting(state);
}

// ---------------------------------------------------------------------------
// LazySubsetDfa

LazySubsetDfa::LazySubsetDfa(const Nfa& nfa, bool complement)
    : flat_(CompileFlat(nfa)),
      complement_(complement),
      successors_(flat_.num_symbols(), Bitset(flat_.NumStates())) {}

int LazySubsetDfa::Intern(const Bitset& subset) {
  int id = interner_.InternHashed(subset.words(), subset.Hash());
  if (id == static_cast<int>(accepting_.size())) {
    accepting_.push_back(SubsetAccepts(flat_, subset.words()));
  }
  return id;
}

int LazySubsetDfa::StartState() {
  Bitset start(flat_.NumStates());
  for (int s : flat_.InitialStates()) start.Set(s);
  return Intern(start);
}

int LazySubsetDfa::Step(int state, int symbol) {
  RPQI_CHECK(0 <= state && state < static_cast<int>(accepting_.size()));
  const int num_symbols = flat_.num_symbols();
  const size_t row = static_cast<size_t>(state) * num_symbols;
  if (row >= step_cache_.size()) {
    step_cache_.resize(accepting_.size() * num_symbols, -1);
  }
  if (step_cache_[row + symbol] < 0) {
    SubsetStepAll(flat_, interner_.KeyOf(state), &successors_);
    for (int a = 0; a < num_symbols; ++a) {
      step_cache_[row + a] = Intern(successors_[a]);
    }
  }
  return step_cache_[row + symbol];
}

bool LazySubsetDfa::IsAccepting(int state) {
  RPQI_CHECK(0 <= state && state < static_cast<int>(accepting_.size()));
  return accepting_[state] != complement_;
}

bool LazySubsetDfa::IsDead(int state) {
  if (complement_) return false;
  const std::vector<uint64_t>& words = interner_.KeyOf(state);
  return std::all_of(words.begin(), words.end(),
                     [](uint64_t word) { return word == 0; });
}

bool LazySubsetDfa::Subsumes(int state, int other) {
  const std::vector<uint64_t>& a = interner_.KeyOf(state);
  const std::vector<uint64_t>& b = interner_.KeyOf(other);
  // Without complement `state` subsumes a subset of itself, with complement
  // a superset.
  for (size_t i = 0; i < a.size(); ++i) {
    if (complement_ ? (a[i] & ~b[i]) != 0 : (b[i] & ~a[i]) != 0) return false;
  }
  return true;
}

SubsumptionSig LazySubsetDfa::SubsumptionSignature(int state) {
  // Lane-fold of the subset words: subset inclusion implies fold inclusion.
  // Complementing flips the subsumption direction, so the fold moves to the
  // antitone (shrink) side — keeping the filter words sparse either way.
  SubsumptionSig signature;
  uint64_t* side = complement_ ? signature.shrink : signature.grow;
  const std::vector<uint64_t>& words = interner_.KeyOf(state);
  for (size_t i = 0; i < words.size(); ++i) side[i & 1] |= words[i];
  return signature;
}

// ---------------------------------------------------------------------------
// LazyProductDfa

LazyProductDfa::LazyProductDfa(std::vector<LazyDfa*> parts)
    : parts_(std::move(parts)) {
  RPQI_CHECK(!parts_.empty());
  num_symbols_ = parts_[0]->NumSymbols();
  for (LazyDfa* part : parts_) {
    RPQI_CHECK_EQ(part->NumSymbols(), num_symbols_);
  }
  scratch_key_.resize(parts_.size());
}

int LazyProductDfa::StartState() {
  for (size_t i = 0; i < parts_.size(); ++i) {
    scratch_key_[i] = static_cast<uint64_t>(parts_[i]->StartState());
  }
  return interner_.Intern(scratch_key_);
}

int LazyProductDfa::Step(int state, int symbol) {
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  for (size_t i = 0; i < parts_.size(); ++i) {
    scratch_key_[i] = static_cast<uint64_t>(
        parts_[i]->Step(static_cast<int>(key[i]), symbol));
  }
  return interner_.Intern(scratch_key_);
}

bool LazyProductDfa::IsAccepting(int state) {
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (!parts_[i]->IsAccepting(static_cast<int>(key[i]))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// LazyImageSubsetDfa

LazyImageSubsetDfa::LazyImageSubsetDfa(LazyDfa* inner, std::vector<int> mapping,
                                       int image_symbols, bool complement)
    : inner_(inner),
      mapping_(std::move(mapping)),
      image_symbols_(image_symbols),
      complement_(complement),
      preimage_(image_symbols) {
  RPQI_CHECK_EQ(static_cast<int>(mapping_.size()), inner->NumSymbols());
  for (int symbol = 0; symbol < inner->NumSymbols(); ++symbol) {
    int image = mapping_[symbol];
    if (image == kEpsilon) {
      erased_symbols_.push_back(symbol);
    } else {
      RPQI_CHECK(0 <= image && image < image_symbols);
      preimage_[image].push_back(symbol);
    }
  }
}

int LazyImageSubsetDfa::CloseAndIntern(std::vector<int> states) {
  // BFS closure under erased-symbol steps.
  std::sort(states.begin(), states.end());
  states.erase(std::unique(states.begin(), states.end()), states.end());
  std::unordered_map<int, char> seen;
  std::vector<int> stack = states;
  for (int s : states) seen[s] = 1;
  while (!stack.empty()) {
    int s = stack.back();
    stack.pop_back();
    for (int symbol : erased_symbols_) {
      int to = inner_->Step(s, symbol);
      if (seen.try_emplace(to, 1).second) {
        states.push_back(to);
        stack.push_back(to);
      }
    }
  }
  std::sort(states.begin(), states.end());
  std::vector<uint64_t> key(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    key[i] = static_cast<uint64_t>(states[i]);
  }
  return interner_.Intern(key);
}

int LazyImageSubsetDfa::StartState() {
  return CloseAndIntern({inner_->StartState()});
}

int LazyImageSubsetDfa::Step(int state, int symbol) {
  RPQI_CHECK(0 <= symbol && symbol < image_symbols_);
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  std::vector<int> next;
  for (uint64_t raw : key) {
    int s = static_cast<int>(raw);
    for (int inner_symbol : preimage_[symbol]) {
      next.push_back(inner_->Step(s, inner_symbol));
    }
  }
  return CloseAndIntern(std::move(next));
}

bool LazyImageSubsetDfa::IsAccepting(int state) {
  const std::vector<uint64_t>& key = interner_.KeyOf(state);
  bool accepts = false;
  for (uint64_t raw : key) {
    if (inner_->IsAccepting(static_cast<int>(raw))) {
      accepts = true;
      break;
    }
  }
  return accepts != complement_;
}

bool LazyImageSubsetDfa::Subsumes(int state, int other) {
  // Keys are sorted unique inner ids; inclusion by std::includes. Without
  // complement bigger sets accept more, with complement smaller ones do.
  const std::vector<uint64_t>& a = interner_.KeyOf(state);
  const std::vector<uint64_t>& b = interner_.KeyOf(other);
  const std::vector<uint64_t>& fine = complement_ ? a : b;
  const std::vector<uint64_t>& coarse = complement_ ? b : a;
  return std::includes(coarse.begin(), coarse.end(), fine.begin(), fine.end());
}

SubsumptionSig LazyImageSubsetDfa::SubsumptionSignature(int state) {
  // Bloom filter over the inner ids: id-set inclusion implies bit inclusion,
  // moved to the antitone side under complement like the order itself.
  SubsumptionSig signature;
  uint64_t* side = complement_ ? signature.shrink : signature.grow;
  for (uint64_t raw : interner_.KeyOf(state)) {
    const unsigned bit = static_cast<unsigned>(raw) & 127;
    side[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  return signature;
}

// ---------------------------------------------------------------------------
// Emptiness / materialization

namespace {

/// Antichain of queued states bucketed by subsumption partition. A candidate
/// dominated by a member is discarded; otherwise it joins its bucket,
/// superseding the members it dominates (those stay queued — only their
/// future pruning power is taken over).
///
/// Two devices keep the per-discovery linear scan affordable even when a
/// partition is coarse (e.g. the table/subset automata put every state in one
/// bucket):
///  - tier 1: the candidate's own partition bucket is scanned exhaustively.
///    Partitions group the states most likely to dominate each other, so
///    these buckets stay small and the scan stays cheap.
///  - tier 2: a single bounded cross-partition pool (the first
///    kGlobalMembers undominated states of the whole search) is scanned with
///    a signature pre-filter — a member can only dominate the candidate if
///    grow(candidate) ⊆ grow(member) and shrink(member) ⊆ shrink(candidate)
///    lanewise, so most pairs are rejected with four AND-NOTs. The
///    pool is bounded so each Blocks call costs O(bucket + kGlobalMembers);
///    once full, later states are still checked against it (and can still be
///    pruned) but stop contributing cross-partition pruning power, which
///    affects neither soundness nor the shortest-witness guarantee.
class SubsumptionAntichain {
  struct Bucket {
    std::vector<int> ids;
    std::vector<SubsumptionSig> sigs;  // parallel to ids
  };

 public:
  template <typename SubsumesFn>
  bool Blocks(int candidate, uint64_t partition, SubsumptionSig signature,
              SubsumesFn subsumes) {
    Bucket& bucket = buckets_[partition];
    for (size_t i = 0; i < bucket.sigs.size(); ++i) {
      if (MayDominate(bucket.sigs[i], signature) &&
          subsumes(bucket.ids[i], candidate)) {
        return true;
      }
    }
    for (size_t i = 0; i < global_ids_.size(); ++i) {
      if (MayDominate(global_sigs_[i], signature) &&
          subsumes(global_ids_[i], candidate)) {
        return true;
      }
    }
    Erase(bucket, candidate, signature, subsumes);
    bucket.ids.push_back(candidate);
    bucket.sigs.push_back(signature);
    if (global_ids_.size() < kGlobalMembers) {
      global_ids_.push_back(candidate);
      global_sigs_.push_back(signature);
    }
    return false;
  }

  int64_t TotalSize() const {
    int64_t total = 0;
    for (const auto& [partition, bucket] : buckets_) {
      total += static_cast<int64_t>(bucket.ids.size());
    }
    return total;
  }

 private:
  /// Signature pre-filter: false proves `dominator` cannot subsume
  /// `candidate`; true says nothing. One branch, four AND-NOTs per pair.
  static bool MayDominate(const SubsumptionSig& dominator,
                          const SubsumptionSig& candidate) {
    return ((candidate.grow[0] & ~dominator.grow[0]) |
            (candidate.grow[1] & ~dominator.grow[1]) |
            (dominator.shrink[0] & ~candidate.shrink[0]) |
            (dominator.shrink[1] & ~candidate.shrink[1])) == 0;
  }

  /// Drops the bucket members the candidate supersedes (they stay queued —
  /// only their future pruning power is taken over). The global pool keeps
  /// superseded members: redundant but sound, and eviction would only free
  /// slots for weaker (later, more specific) states.
  template <typename SubsumesFn>
  void Erase(Bucket& bucket, int candidate, SubsumptionSig signature,
             SubsumesFn subsumes) {
    size_t kept = 0;
    for (size_t i = 0; i < bucket.sigs.size(); ++i) {
      if (MayDominate(signature, bucket.sigs[i]) &&
          subsumes(candidate, bucket.ids[i])) {
        continue;  // superseded by the candidate
      }
      bucket.ids[kept] = bucket.ids[i];
      bucket.sigs[kept] = bucket.sigs[i];
      ++kept;
    }
    bucket.ids.resize(kept);
    bucket.sigs.resize(kept);
  }

  static constexpr size_t kGlobalMembers = 1 << 11;
  std::unordered_map<uint64_t, Bucket> buckets_;
  // Tier-2 pool; sigs packed separately from ids so the hot scan streams
  // 32-byte signature records and only touches ids on a filter hit.
  std::vector<int> global_ids_;
  std::vector<SubsumptionSig> global_sigs_;
};

}  // namespace

EmptinessResult FindAcceptedWordWithNfa(const Nfa& input,
                                        const std::vector<LazyDfa*>& parts,
                                        int64_t max_states, Budget* budget) {
  // Flushed once per search (not per state) so the hot loop stays clean.
  static const obs::Counter searches_counter("emptiness.searches");
  static const obs::Counter queued_counter("emptiness.states_queued");
  static const obs::Counter pruned_counter("emptiness.states_pruned");
  static const obs::Counter checks_counter("emptiness.budget_checks");
  static const obs::Counter dead_cuts_counter("emptiness.dead_cuts");
  obs::Span span("emptiness.search");
  const Nfa nfa = RemoveEpsilon(input);
  for (LazyDfa* part : parts) {
    RPQI_CHECK_EQ(part->NumSymbols(), nfa.num_symbols());
  }
  EmptinessResult result;
  bool use_antichain = false;
  for (LazyDfa* part : parts) {
    if (part->HasSubsumption()) use_antichain = true;
  }

  struct NodeInfo {
    int parent;
    int symbol;
  };
  std::vector<NodeInfo> info;     // indexed by BFS discovery order
  std::vector<int> index_of_id;   // interned id -> info index, -1 = pruned
  WordVectorInterner interner;
  std::deque<std::pair<int, int>> queue;  // (interned id, discovery index)
  SubsumptionAntichain antichain;
  int64_t queued_states = 0;
  int64_t budget_checks = 0;
  auto finalize_stats = [&] {
    result.states_explored = queued_states;
    result.antichain_size = use_antichain ? antichain.TotalSize() : 0;
    searches_counter.Increment();
    queued_counter.Add(queued_states);
    pruned_counter.Add(result.states_pruned);
    checks_counter.Add(budget_checks);
    dead_cuts_counter.Add(result.dead_cuts);
    span.Note("states_explored", result.states_explored);
    span.Note("states_pruned", result.states_pruned);
    span.Note("antichain_size", result.antichain_size);
    span.Note("dead_cuts", result.dead_cuts);
  };

  // Reused key buffers, so no product edge allocates: `key` holds a copy of
  // the popped tuple's key, `next` the tuple being interned (the NFA state,
  // then one state per part).
  std::vector<uint64_t> key;
  std::vector<uint64_t> next(parts.size() + 1);
  // Tuple subsumption: the NFA component must match exactly; the parts are
  // compared componentwise (parts without subsumption require equality).
  auto partition = [&](int id) {
    const std::vector<uint64_t>& key = interner.KeyOf(id);
    uint64_t h = HashCombine(0, key[0]);
    for (size_t i = 0; i < parts.size(); ++i) {
      h = HashCombine(
          h, parts[i]->SubsumptionPartition(static_cast<int>(key[1 + i])));
    }
    return h;
  };
  auto subsumes = [&](int s, int t) {
    const std::vector<uint64_t>& a = interner.KeyOf(s);
    const std::vector<uint64_t>& b = interner.KeyOf(t);
    if (a[0] != b[0]) return false;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i]->Subsumes(static_cast<int>(a[1 + i]),
                              static_cast<int>(b[1 + i]))) {
        return false;
      }
    }
    return true;
  };
  auto blocks = [&](int id) {
    const std::vector<uint64_t>& key = interner.KeyOf(id);
    // The NFA component requires equality, so its Bloom bit is monotone too.
    SubsumptionSig signature;
    const unsigned nfa_bit = static_cast<unsigned>(key[0]) & 127;
    signature.grow[nfa_bit >> 6] |= uint64_t{1} << (nfa_bit & 63);
    // The contract survives bitwise OR and any fixed per-part bit
    // permutation, so each part's signature is rotated and lane-swapped by
    // the part index before the union — decorrelating parts that would
    // otherwise pile their bits onto the same positions and blunt the filter.
    for (size_t i = 0; i < parts.size(); ++i) {
      SubsumptionSig part =
          parts[i]->SubsumptionSignature(static_cast<int>(key[1 + i]));
      const int r = static_cast<int>((i * 23) & 63);
      const size_t lane = i & 1;
      signature.grow[lane] |= std::rotl(part.grow[0], r);
      signature.grow[lane ^ 1] |= std::rotl(part.grow[1], r);
      signature.shrink[lane] |= std::rotl(part.shrink[0], r);
      signature.shrink[lane ^ 1] |= std::rotl(part.shrink[1], r);
    }
    return antichain.Blocks(id, partition(id), signature, subsumes);
  };

  for (size_t i = 0; i < parts.size(); ++i) {
    next[1 + i] = static_cast<uint64_t>(parts[i]->StartState());
  }
  for (int s : nfa.InitialStates()) {
    next[0] = static_cast<uint64_t>(s);
    int id = interner.Intern(next);
    if (id == static_cast<int>(index_of_id.size())) {
      if (use_antichain && blocks(id)) {
        index_of_id.push_back(-1);
        ++result.states_pruned;
        continue;
      }
      index_of_id.push_back(static_cast<int>(info.size()));
      info.push_back({-1, -1});
      queue.push_back({id, index_of_id[id]});
      ++queued_states;
    }
  }

  auto accepts = [&](int id) {
    const std::vector<uint64_t>& key = interner.KeyOf(id);
    if (!nfa.IsAccepting(static_cast<int>(key[0]))) return false;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i]->IsAccepting(static_cast<int>(key[1 + i]))) return false;
    }
    return true;
  };

  while (!queue.empty()) {
    ++budget_checks;
    if (Status budget_status = BudgetCheck(budget); !budget_status.ok()) {
      result.outcome = EmptinessResult::Outcome::kLimitExceeded;
      finalize_stats();
      result.status = std::move(budget_status);
      return result;
    }
    auto [id, index] = queue.front();
    queue.pop_front();
    if (accepts(id)) {
      std::vector<int> word;
      for (int i = index; info[i].parent != -1; i = info[i].parent) {
        word.push_back(info[i].symbol);
      }
      std::reverse(word.begin(), word.end());
      result.outcome = EmptinessResult::Outcome::kFoundWord;
      result.witness = std::move(word);
      finalize_stats();
      return result;
    }
    key = interner.KeyOf(id);
    int nfa_state = static_cast<int>(key[0]);
    // Each NFA transition advances the parts in order; the first part that
    // steps into a dead state drops the tuple.
    for (const Nfa::Transition& t : nfa.TransitionsFrom(nfa_state)) {
      next[0] = static_cast<uint64_t>(t.to);
      size_t live_parts = 0;
      for (; live_parts < parts.size(); ++live_parts) {
        LazyDfa* part = parts[live_parts];
        const int part_state =
            part->Step(static_cast<int>(key[1 + live_parts]), t.symbol);
        if (part->IsDead(part_state)) break;
        next[1 + live_parts] = static_cast<uint64_t>(part_state);
      }
      if (live_parts < parts.size()) {
        ++result.dead_cuts;
        continue;
      }
      int to = interner.Intern(next);
      if (to == static_cast<int>(index_of_id.size())) {
        if (use_antichain && blocks(to)) {
          index_of_id.push_back(-1);
          ++result.states_pruned;
          continue;
        }
        index_of_id.push_back(static_cast<int>(info.size()));
        info.push_back({index, t.symbol});
        queue.push_back({to, index_of_id[to]});
        ++queued_states;
        Status charge_status = BudgetCharge(budget, 1);
        if (queued_states > max_states || !charge_status.ok()) {
          result.outcome = EmptinessResult::Outcome::kLimitExceeded;
          finalize_stats();
          result.status = charge_status.ok()
                              ? Status::ResourceExhausted(
                                    "emptiness search exceeded " +
                                    std::to_string(max_states) + " states")
                              : std::move(charge_status);
          return result;
        }
      }
    }
  }
  result.outcome = EmptinessResult::Outcome::kEmpty;
  finalize_stats();
  return result;
}

EmptinessResult FindAcceptedWord(const std::vector<LazyDfa*>& parts,
                                 int64_t max_states, Budget* budget) {
  RPQI_CHECK(!parts.empty());
  return FindAcceptedWordWithNfa(UniversalNfa(parts[0]->NumSymbols()), parts,
                                 max_states, budget);
}

StatusOr<Dfa> MaterializeLazyDfa(LazyDfa* dfa, int64_t max_states,
                                 Budget* budget) {
  static const obs::Counter runs_counter("materialize.runs");
  static const obs::Counter states_counter("materialize.states");
  obs::Span span("automata.materialize");
  const int num_symbols = dfa->NumSymbols();
  // Lazy ids are dense interned ids, so both directions are flat vectors.
  std::vector<int> dense;       // lazy state id -> dense id, -1 if unseen
  std::vector<int> lazy_id_of;  // dense id -> lazy state id
  std::vector<int> next;        // row-major transition table

  int start = dfa->StartState();
  dense.assign(static_cast<size_t>(start) + 1, -1);
  dense[start] = 0;
  lazy_id_of.push_back(start);

  for (size_t i = 0; i < lazy_id_of.size(); ++i) {
    RPQI_RETURN_IF_ERROR(BudgetCheck(budget));
    for (int a = 0; a < num_symbols; ++a) {
      int to = dfa->Step(lazy_id_of[i], a);
      if (static_cast<size_t>(to) >= dense.size()) {
        dense.resize(std::max(static_cast<size_t>(to) + 1, 2 * dense.size()),
                     -1);
      }
      if (dense[to] < 0) {
        if (static_cast<int64_t>(lazy_id_of.size()) + 1 > max_states) {
          return Status::ResourceExhausted(
              "lazy DFA materialization exceeded " +
              std::to_string(max_states) + " states");
        }
        // Allocation-failure injection twin of automata.determinize_state,
        // covering the product/materialization side of the hot path.
        RPQI_FAULT_POINT("automata.materialize_state",
                         Status::ResourceExhausted(
                             "injected state-allocation failure in lazy DFA "
                             "materialization"));
        RPQI_RETURN_IF_ERROR(BudgetCharge(budget, 1));
        dense[to] = static_cast<int>(lazy_id_of.size());
        lazy_id_of.push_back(to);
      }
      next.push_back(dense[to]);
    }
  }

  std::vector<bool> accepting(lazy_id_of.size());
  for (size_t i = 0; i < lazy_id_of.size(); ++i) {
    accepting[i] = dfa->IsAccepting(lazy_id_of[i]);
  }
  runs_counter.Increment();
  states_counter.Add(static_cast<int64_t>(lazy_id_of.size()));
  span.Note("states", static_cast<int64_t>(lazy_id_of.size()));
  return Dfa(num_symbols, std::move(next), std::move(accepting),
             /*initial=*/0);
}

}  // namespace rpqi
