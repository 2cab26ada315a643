#include "automata/flat.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "analysis/validate.h"
#include "automata/ops.h"
#include "base/hash.h"

namespace rpqi {

namespace {

/// The fixed on-disk header. Field order keeps every member naturally
/// aligned, so the struct layout is the wire layout with no packing pragma;
/// the static_asserts pin that (a compiler inserting padding would change
/// sizeof and fail the build, not corrupt files).
struct FlatPlanHeader {
  char magic[12];
  uint32_t version;
  uint32_t endian_tag;
  uint32_t num_symbols;
  uint64_t file_bytes;
  uint64_t checksum;
  uint64_t num_states;
  uint64_t num_edges;
  uint64_t num_initial;
  uint64_t tag_bytes;
  uint64_t has_answers;
  uint64_t num_answers;
};

static_assert(sizeof(FlatPlanHeader) == 88,
              "on-disk plan header layout changed; bump kFlatPlanVersion");
static_assert(alignof(FlatPlanHeader) == 8, "header must be 8-byte aligned");
static_assert(std::is_trivially_copyable_v<FlatPlanHeader>,
              "header is memcpy'd to/from disk");
static_assert(sizeof(FlatPlanHeader) % 8 == 0,
              "payload must start 8-byte aligned");

constexpr size_t kHeaderBytes = sizeof(FlatPlanHeader);

size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

size_t WordsFor(uint64_t states) {
  return static_cast<size_t>((states + 63) / 64);
}

/// Folds `size` bytes into a running checksum, 8 at a time via memcpy
/// (alignment-free) with the length folded in first.
uint64_t ChecksumSpan(uint64_t h, const char* data, size_t size) {
  h = HashCombine(h, size);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = HashCombine(h, word);
  }
  for (; i < size; ++i) {
    h = HashCombine(h, static_cast<unsigned char>(data[i]));
  }
  return h;
}

constexpr size_t kChecksumFieldOffset = offsetof(FlatPlanHeader, checksum);

/// Checksum of the whole buffer except the 8 checksum bytes themselves: the
/// header fields (counts, flags, tag length) are covered too, so a bit flip
/// *anywhere* in the plan file is detected, not only in the payload.
uint64_t FileChecksum(const char* data, size_t size) {
  uint64_t h = 0x52505149504c4131ULL;  // "RPQIPLA1"
  h = ChecksumSpan(h, data, kChecksumFieldOffset);
  h = ChecksumSpan(h, data + kChecksumFieldOffset + 8,
                   size - kChecksumFieldOffset - 8);
  return h;
}

std::string Ctx(std::string_view source_name) {
  if (source_name.empty()) return "plan: ";
  return std::string(source_name) + ": ";
}

std::string Num(uint64_t n) { return std::to_string(n); }

/// Appends `count` elements of `src` as raw little-endian bytes.
template <typename T>
void AppendArray(std::string* out, const T* src, size_t count) {
  size_t bytes = count * sizeof(T);
  size_t at = out->size();
  out->resize(at + bytes);
  if (bytes > 0) std::memcpy(out->data() + at, src, bytes);
}

/// Copies `count` elements out of the buffer at `offset` (bounds already
/// checked against the declared total size).
template <typename T>
std::vector<T> ReadArray(std::string_view bytes, size_t offset, size_t count) {
  std::vector<T> out(count);
  if (count > 0) std::memcpy(out.data(), bytes.data() + offset,
                             count * sizeof(T));
  return out;
}

/// Section sizes are fully determined by the header counts, so the layout is
/// a deterministic walk rather than a section table: each section starts at
/// the previous 8-aligned end. Shared by the encoder, the size predictor,
/// and the decoder so they can never disagree.
struct PlanLayout {
  size_t tag = 0;
  size_t offsets = 0;
  size_t edges = 0;
  size_t initial_words = 0;
  size_t accepting_words = 0;
  size_t initial_list = 0;
  size_t answers = 0;
  size_t total = 0;
};

PlanLayout ComputeLayout(uint64_t num_states, uint64_t num_edges,
                         uint64_t num_initial, uint64_t tag_bytes,
                         uint64_t num_answers) {
  PlanLayout layout;
  size_t at = kHeaderBytes;
  auto place = [&at](size_t bytes) {
    at = Align8(at);
    size_t here = at;
    at += bytes;
    return here;
  };
  layout.tag = place(tag_bytes);
  layout.offsets = place((num_states + 1) * sizeof(uint32_t));
  layout.edges = place(num_edges * sizeof(FlatNfa::Edge));
  layout.initial_words = place(WordsFor(num_states) * sizeof(uint64_t));
  layout.accepting_words = place(WordsFor(num_states) * sizeof(uint64_t));
  layout.initial_list = place(num_initial * sizeof(int32_t));
  layout.answers = place(num_answers * 2 * sizeof(uint32_t));
  layout.total = Align8(at);
  return layout;
}

}  // namespace

FlatNfa CompileFlat(const Nfa& input) {
  // ε-closure is pre-applied once here, not per evaluation: RemoveEpsilon
  // folds closures into direct transitions and fixes up initial/accepting.
  Nfa scratch(0);
  const Nfa* src = &input;
  if (input.HasEpsilonTransitions()) {
    scratch = RemoveEpsilon(input);
    src = &scratch;
  }
  const int num_states = src->NumStates();

  std::vector<uint32_t> offsets(static_cast<size_t>(num_states) + 1, 0);
  std::vector<FlatNfa::Edge> edges;
  edges.reserve(static_cast<size_t>(src->NumTransitions()));
  for (int s = 0; s < num_states; ++s) {
    size_t begin = edges.size();
    for (const Nfa::Transition& t : src->TransitionsFrom(s)) {
      edges.push_back({static_cast<int32_t>(t.symbol),
                       static_cast<int32_t>(t.to)});
    }
    // Sorted + deduplicated per state: duplicate transitions are legal in an
    // Nfa but carry no information, and sortedness is what makes the
    // serialized bytes canonical.
    std::sort(edges.begin() + begin, edges.end());
    edges.erase(std::unique(edges.begin() + begin, edges.end()), edges.end());
    offsets[s + 1] = static_cast<uint32_t>(edges.size());
  }

  std::vector<uint64_t> initial_words(WordsFor(num_states), 0);
  std::vector<uint64_t> accepting_words(WordsFor(num_states), 0);
  std::vector<int32_t> initial_list;
  for (int s = 0; s < num_states; ++s) {
    if (src->IsInitial(s)) {
      initial_words[s >> 6] |= uint64_t{1} << (s & 63);
      initial_list.push_back(s);
    }
    if (src->IsAccepting(s)) {
      accepting_words[s >> 6] |= uint64_t{1} << (s & 63);
    }
  }

  FlatNfa flat = FlatNfa::FromPartsUnchecked(
      src->num_symbols(), std::move(offsets), std::move(edges),
      std::move(initial_words), std::move(accepting_words),
      std::move(initial_list));
  RPQI_VALIDATE_STAGE(ValidateFlatNfa(flat));
  return flat;
}

void SubsetStepAll(const FlatNfa& flat, std::span<const uint64_t> subset,
                   std::vector<Bitset>* next) {
  RPQI_DCHECK(static_cast<int>(next->size()) == flat.num_symbols());
  RPQI_DCHECK(subset.size() == flat.accepting_words().size());
  for (Bitset& successors : *next) successors.Clear();
  ForEachSetBit(subset.data(), subset.size(), [&](int s) {
    for (const FlatNfa::Edge& e : flat.Edges(s)) (*next)[e.symbol].Set(e.to);
  });
}

bool SubsetAccepts(const FlatNfa& flat, std::span<const uint64_t> subset) {
  const std::vector<uint64_t>& accepting = flat.accepting_words();
  RPQI_DCHECK(subset.size() == accepting.size());
  for (size_t i = 0; i < subset.size(); ++i) {
    if (subset[i] & accepting[i]) return true;
  }
  return false;
}

bool IsFlatPlan(std::string_view prefix) {
  return prefix.size() >= sizeof(kFlatPlanMagic) &&
         std::memcmp(prefix.data(), kFlatPlanMagic, sizeof(kFlatPlanMagic)) ==
             0;
}

int64_t EncodedFlatPlanBytes(const FlatPlan& plan) {
  return static_cast<int64_t>(
      ComputeLayout(plan.nfa.NumStates(), plan.nfa.NumEdges(),
                    plan.nfa.initial_list().size(), plan.tag.size(),
                    plan.has_answers ? plan.answers.size() : 0)
          .total);
}

std::string EncodeFlatPlan(const FlatPlan& plan) {
  const FlatNfa& nfa = plan.nfa;
  RPQI_CHECK_EQ(nfa.offsets().size(),
                static_cast<size_t>(nfa.NumStates()) + 1);
  const uint64_t num_answers = plan.has_answers ? plan.answers.size() : 0;
  const PlanLayout layout =
      ComputeLayout(nfa.NumStates(), nfa.NumEdges(), nfa.initial_list().size(),
                    plan.tag.size(), num_answers);

  FlatPlanHeader header{};
  std::memcpy(header.magic, kFlatPlanMagic, sizeof(kFlatPlanMagic));
  header.version = kFlatPlanVersion;
  header.endian_tag = kFlatPlanEndianTag;
  header.num_symbols = static_cast<uint32_t>(nfa.num_symbols());
  header.file_bytes = layout.total;
  header.num_states = static_cast<uint64_t>(nfa.NumStates());
  header.num_edges = static_cast<uint64_t>(nfa.NumEdges());
  header.num_initial = nfa.initial_list().size();
  header.tag_bytes = plan.tag.size();
  header.has_answers = plan.has_answers ? 1 : 0;
  header.num_answers = num_answers;

  std::string out(kHeaderBytes, '\0');
  auto pad_to = [&out](size_t offset) {
    out.resize(offset, '\0');
  };
  pad_to(layout.tag);
  out.append(plan.tag);
  pad_to(layout.offsets);
  AppendArray(&out, nfa.offsets().data(), nfa.offsets().size());
  pad_to(layout.edges);
  AppendArray(&out, nfa.edges().data(), nfa.edges().size());
  pad_to(layout.initial_words);
  AppendArray(&out, nfa.initial_words().data(), nfa.initial_words().size());
  pad_to(layout.accepting_words);
  AppendArray(&out, nfa.accepting_words().data(),
              nfa.accepting_words().size());
  pad_to(layout.initial_list);
  AppendArray(&out, nfa.initial_list().data(), nfa.initial_list().size());
  pad_to(layout.answers);
  if (num_answers > 0) {
    static_assert(sizeof(std::pair<uint32_t, uint32_t>) == 8,
                  "answer pairs are serialized as two u32 words");
    AppendArray(&out, plan.answers.data(), plan.answers.size());
  }
  pad_to(layout.total);

  header.checksum = 0;
  std::memcpy(out.data(), &header, kHeaderBytes);
  header.checksum = FileChecksum(out.data(), out.size());
  std::memcpy(out.data(), &header, kHeaderBytes);
  return out;
}

StatusOr<FlatPlan> DecodeFlatPlan(std::string_view bytes,
                                  std::string_view source_name) {
  const std::string ctx = Ctx(source_name);
  if (bytes.size() < kHeaderBytes) {
    return Status::InvalidArgument(ctx + "truncated: " + Num(bytes.size()) +
                                   " bytes, but the header alone is " +
                                   Num(kHeaderBytes));
  }
  FlatPlanHeader header;
  std::memcpy(&header, bytes.data(), kHeaderBytes);
  if (!IsFlatPlan(bytes)) {
    return Status::InvalidArgument(ctx +
                                   "byte 0: bad magic (not an RPQIPLAN1 "
                                   "compiled plan)");
  }
  if (header.version != kFlatPlanVersion) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(FlatPlanHeader, version)) +
        ": unsupported version " + Num(header.version) + " (this build reads " +
        Num(kFlatPlanVersion) + ")");
  }
  if (header.endian_tag != kFlatPlanEndianTag) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(FlatPlanHeader, endian_tag)) +
        ": endianness tag mismatch (written on a foreign byte order)");
  }
  if (header.file_bytes != bytes.size()) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(FlatPlanHeader, file_bytes)) +
        ": header declares " + Num(header.file_bytes) +
        " bytes but the buffer holds " + Num(bytes.size()) +
        " (truncated or torn write)");
  }
  if (header.has_answers > 1) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(FlatPlanHeader, has_answers)) +
        ": has_answers flag is " + Num(header.has_answers) +
        ", expected 0 or 1");
  }
  // Plausibility caps: each count-derived section must fit in the buffer, so
  // the layout arithmetic below cannot wrap uint64 and smuggle a tiny
  // section past the total-size check (same discipline as the columnar
  // parser's implausible-counts guard).
  const uint64_t size = bytes.size();
  if (header.num_states > (uint64_t{1} << 31) ||
      header.num_edges > size / sizeof(FlatNfa::Edge) ||
      header.num_states + 1 > size / sizeof(uint32_t) ||
      header.num_initial > size / sizeof(int32_t) ||
      header.tag_bytes > size || header.num_answers > size / 8 ||
      header.num_symbols > (uint64_t{1} << 31)) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(FlatPlanHeader, num_states)) +
        ": implausible counts (states " + Num(header.num_states) +
        ", edges " + Num(header.num_edges) + ", initial " +
        Num(header.num_initial) + ", tag " + Num(header.tag_bytes) +
        ", answers " + Num(header.num_answers) + ")");
  }
  const PlanLayout layout =
      ComputeLayout(header.num_states, header.num_edges, header.num_initial,
                    header.tag_bytes,
                    header.has_answers != 0 ? header.num_answers : 0);
  if (layout.total != size) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(FlatPlanHeader, num_states)) +
        ": counts dictate " + Num(layout.total) +
        " bytes but the buffer holds " + Num(size));
  }
  const uint64_t computed = FileChecksum(bytes.data(), bytes.size());
  if (computed != header.checksum) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(FlatPlanHeader, checksum)) +
        ": checksum mismatch over the buffer's " + Num(size) +
        " bytes: stored " + Num(header.checksum) + ", computed " +
        Num(computed) + " (corrupt or torn write)");
  }

  FlatPlan plan;
  plan.tag.assign(bytes.data() + layout.tag,
                  static_cast<size_t>(header.tag_bytes));
  plan.nfa = FlatNfa::FromPartsUnchecked(
      static_cast<int>(header.num_symbols),
      ReadArray<uint32_t>(bytes, layout.offsets,
                          static_cast<size_t>(header.num_states) + 1),
      ReadArray<FlatNfa::Edge>(bytes, layout.edges,
                               static_cast<size_t>(header.num_edges)),
      ReadArray<uint64_t>(bytes, layout.initial_words,
                          WordsFor(header.num_states)),
      ReadArray<uint64_t>(bytes, layout.accepting_words,
                          WordsFor(header.num_states)),
      ReadArray<int32_t>(bytes, layout.initial_list,
                         static_cast<size_t>(header.num_initial)));
  plan.has_answers = header.has_answers != 0;
  if (plan.has_answers) {
    // Read as raw u32 words, not memcpy-into-pair: std::pair is not
    // trivially assignable as far as -Wclass-memaccess is concerned.
    std::vector<uint32_t> words = ReadArray<uint32_t>(
        bytes, layout.answers, static_cast<size_t>(header.num_answers) * 2);
    plan.answers.reserve(static_cast<size_t>(header.num_answers));
    for (size_t i = 0; i < words.size(); i += 2) {
      plan.answers.push_back({words[i], words[i + 1]});
    }
  }
  // The checksum proves integrity, not well-formedness: a buggy or hostile
  // *encoder* checksums its own garbage correctly. The structural validator
  // is the admission gate before any span accessor runs.
  if (Status valid = ValidateFlatNfa(plan.nfa); !valid.ok()) {
    return Status::InvalidArgument(ctx + "structurally invalid plan: " +
                                   valid.message());
  }
  return plan;
}

}  // namespace rpqi
