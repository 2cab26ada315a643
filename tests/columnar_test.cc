// Tests for the binary columnar snapshot format (src/graphdb/columnar.h):
// round-trip identity (text -> compact -> load gives bit-identical eval
// answers and a stable plan-cache fingerprint), structured rejection of
// truncated / bit-flipped / misaligned / version-skewed files with
// byte-offset diagnostics, the relation-remap load path, the
// graphdb.compact_write fault site, and the empty graph.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/validate.h"
#include "fault/fault.h"
#include "graphdb/columnar.h"
#include "graphdb/eval.h"
#include "graphdb/graph.h"
#include "graphdb/io.h"
#include "obs/metrics.h"
#include "regex/parser.h"
#include "rpq/compile.h"
#include "service/snapshot.h"

namespace rpqi {
namespace {

struct FaultGuard {
  FaultGuard() { fault::DisarmAll(); }
  ~FaultGuard() { fault::DisarmAll(); }
};

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good());
}

/// A small multi-relation graph exercising shared prefixes in the name
/// dictionary, inverse traversal, parallel edges (multigraph), and a
/// relation that only ever appears inverted.
constexpr char kGraphText[] = R"(alpha r0 beta
alpha r0 beta
beta r1 gamma
gamma r0 alpha
delta r2 alpha
alphabet r1 delta
beta r2 alphabet
)";

GraphDb LoadFixture(SignedAlphabet* alphabet) {
  StatusOr<GraphDb> db = LoadGraphText(kGraphText, alphabet);
  RPQI_CHECK(db.ok());
  return std::move(db).value();
}

StatusOr<GraphDb> ReloadThroughColumnar(const GraphDb& db,
                                        const SignedAlphabet& alphabet,
                                        SignedAlphabet* reloaded_alphabet,
                                        uint64_t* fingerprint_out = nullptr) {
  RPQI_ASSIGN_OR_RETURN(std::string encoded,
                        EncodeColumnar(db, alphabet, /*fingerprint=*/42));
  RPQI_ASSIGN_OR_RETURN(
      ColumnarParts parts,
      DecodeColumnar(std::make_shared<const std::string>(std::move(encoded)),
                     "test"));
  if (fingerprint_out != nullptr) *fingerprint_out = parts.fingerprint;
  return MakeColumnarGraphDb(parts, reloaded_alphabet);
}

TEST(ColumnarTest, RoundTripPreservesNodesEdgesAndNames) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);

  SignedAlphabet reloaded_alphabet;
  uint64_t fingerprint = 0;
  StatusOr<GraphDb> reloaded =
      ReloadThroughColumnar(db, alphabet, &reloaded_alphabet, &fingerprint);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(fingerprint, 42u);
  EXPECT_EQ(reloaded->NumNodes(), db.NumNodes());
  EXPECT_EQ(reloaded->NumEdges(), db.NumEdges());
  // Node ids are preserved (insertion order), names agree, and the sorted
  // dictionary answers NodeId without an interner.
  for (int id = 0; id < db.NumNodes(); ++id) {
    EXPECT_EQ(reloaded->NodeName(id), db.NodeName(id));
    EXPECT_EQ(reloaded->NodeId(std::string(db.NodeName(id))), id);
  }
  EXPECT_EQ(reloaded->NodeId("alphabetical"), -1);
  EXPECT_EQ(reloaded->NodeId(""), -1);
  // Validation passes in columnar mode (CSR invariants incl. the mirror).
  EXPECT_TRUE(
      ValidateGraphDb(*reloaded, reloaded_alphabet.NumRelations()).ok());
  EXPECT_TRUE(CheckGraphEquivalence(db, alphabet, *reloaded, reloaded_alphabet)
                  .ok());
  // HasEdge via binary search over CSR spans, including the duplicate edge.
  int alpha = db.NodeId("alpha"), beta = db.NodeId("beta");
  EXPECT_TRUE(reloaded->HasEdge(alpha, 0, beta));
  EXPECT_FALSE(reloaded->HasEdge(beta, 0, alpha));
}

TEST(ColumnarTest, RoundTripGivesBitIdenticalEvalAnswers) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  SignedAlphabet reloaded_alphabet;
  StatusOr<GraphDb> reloaded =
      ReloadThroughColumnar(db, alphabet, &reloaded_alphabet);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  const char* queries[] = {"r0", "r0 r1", "(r0 | r1^-)*", "r2^- r0 (r1 | r0^-)*"};
  for (const char* q : queries) {
    Nfa query = MustCompileRegex(MustParseRegex(q), alphabet);
    Nfa reloaded_query =
        MustCompileRegex(MustParseRegex(q), reloaded_alphabet);
    EXPECT_EQ(EvalRpqiAllPairs(db, CompileEvalPlan(query)),
              EvalRpqiAllPairs(*reloaded, CompileEvalPlan(reloaded_query)))
        << "query " << q;
  }
}

TEST(ColumnarTest, RelationRemapLoadPreservesSemantics) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  // A caller whose alphabet already numbered relations differently: r2 and
  // r1 are registered first, so the file's ids (r0=0, r1=1, r2=2) land on
  // (r0=2, r1=1, r2=0) — the owned-remap path of MakeColumnarGraphDb.
  SignedAlphabet reloaded_alphabet;
  reloaded_alphabet.AddRelation("r2");
  reloaded_alphabet.AddRelation("r1");
  StatusOr<GraphDb> reloaded =
      ReloadThroughColumnar(db, alphabet, &reloaded_alphabet);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(
      ValidateGraphDb(*reloaded, reloaded_alphabet.NumRelations()).ok());
  EXPECT_TRUE(CheckGraphEquivalence(db, alphabet, *reloaded, reloaded_alphabet)
                  .ok());
  Nfa query = MustCompileRegex(MustParseRegex("r0 (r1^- | r2)*"), alphabet);
  Nfa remapped_query =
      MustCompileRegex(MustParseRegex("r0 (r1^- | r2)*"), reloaded_alphabet);
  EXPECT_EQ(EvalRpqiAllPairs(db, CompileEvalPlan(query)),
            EvalRpqiAllPairs(*reloaded, CompileEvalPlan(remapped_query)));
}

TEST(ColumnarTest, TruncatedFileIsRejectedWithByteOffsets) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  StatusOr<std::string> encoded = EncodeColumnar(db, alphabet, 1);
  ASSERT_TRUE(encoded.ok());
  // Shorter than the header.
  {
    auto bytes = std::make_shared<const std::string>(encoded->substr(0, 100));
    StatusOr<ColumnarParts> parts = DecodeColumnar(bytes, "torn");
    ASSERT_FALSE(parts.ok());
    EXPECT_NE(parts.status().message().find("torn: truncated"),
              std::string::npos)
        << parts.status().ToString();
  }
  // Header intact, payload cut: the header's file_bytes exposes it.
  {
    auto bytes = std::make_shared<const std::string>(
        encoded->substr(0, encoded->size() - 8));
    StatusOr<ColumnarParts> parts = DecodeColumnar(bytes, "torn");
    ASSERT_FALSE(parts.ok());
    EXPECT_NE(parts.status().message().find("byte 16"), std::string::npos)
        << parts.status().ToString();
    EXPECT_NE(parts.status().message().find("truncated or torn"),
              std::string::npos);
  }
}

TEST(ColumnarTest, BitFlipsAreRejectedByChecksumEverywhere) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  StatusOr<std::string> encoded = EncodeColumnar(db, alphabet, 1);
  ASSERT_TRUE(encoded.ok());
  // Flip one bit at every 7th byte position across the WHOLE file, header
  // included (the checksum covers everything but its own field, whose flips
  // show up as a stored/computed mismatch anyway). Every corruption must be
  // caught.
  for (size_t at = 0; at < encoded->size(); at += 7) {
    std::string corrupt = *encoded;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
    auto bytes = std::make_shared<const std::string>(std::move(corrupt));
    StatusOr<ColumnarParts> parts = DecodeColumnar(bytes, "flip");
    EXPECT_FALSE(parts.ok()) << "flip at byte " << at << " went undetected";
  }
}

TEST(ColumnarTest, HeaderCorruptionIsRejectedWithFieldOffsets) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  StatusOr<std::string> encoded = EncodeColumnar(db, alphabet, 1);
  ASSERT_TRUE(encoded.ok());
  struct Case {
    size_t at;
    char value;
    const char* expect;
  };
  const Case cases[] = {
      {0, 'X', "bad magic"},               // magic
      {8, 9, "unsupported version"},       // version (little-endian low byte)
      {12, 0, "endianness tag mismatch"},  // endian tag
  };
  for (const Case& c : cases) {
    std::string corrupt = *encoded;
    corrupt[c.at] = c.value;
    auto bytes = std::make_shared<const std::string>(std::move(corrupt));
    StatusOr<ColumnarParts> parts = DecodeColumnar(bytes, "hdr");
    ASSERT_FALSE(parts.ok()) << c.expect;
    EXPECT_NE(parts.status().message().find(c.expect), std::string::npos)
        << parts.status().ToString();
  }
}

TEST(ColumnarTest, OverflowingEdgeCountIsRejectedAsImplausible) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  StatusOr<std::string> encoded = EncodeColumnar(db, alphabet, 1);
  ASSERT_TRUE(encoded.ok());
  // num_edges lives at bytes [48, 56). e = 2^62 made the expected-size
  // arithmetic wrap (e * 4 == 0 mod 2^64), so a crafted file with empty
  // target sections and a recomputed checksum could pass every size check
  // and then read far out of bounds. The counts must be rejected up front,
  // before any section-table or payload access.
  const uint64_t kForged[] = {uint64_t{1} << 62, uint64_t{1} << 61,
                              uint64_t{1} << 40};
  for (uint64_t e : kForged) {
    std::string corrupt = *encoded;
    std::memcpy(corrupt.data() + 48, &e, 8);
    auto bytes = std::make_shared<const std::string>(std::move(corrupt));
    StatusOr<ColumnarParts> parts = DecodeColumnar(bytes, "forge");
    ASSERT_FALSE(parts.ok()) << "num_edges=" << e << " went undetected";
    EXPECT_NE(parts.status().message().find("implausible counts"),
              std::string::npos)
        << "num_edges=" << e << ": " << parts.status().ToString();
  }
}

TEST(ColumnarTest, MisalignedBufferIsRejected) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  StatusOr<std::string> encoded = EncodeColumnar(db, alphabet, 1);
  ASSERT_TRUE(encoded.ok());
  // An 8-byte-aligned allocation viewed at +1 can never be 8-byte aligned;
  // the parser must refuse before any pointer-cast access.
  auto padded = std::make_shared<std::string>();
  padded->push_back('\0');
  padded->append(*encoded);
  StatusOr<ColumnarParts> parts =
      ParseColumnarView(padded->data() + 1, encoded->size(), padded, "skew");
  ASSERT_FALSE(parts.ok());
  EXPECT_NE(parts.status().message().find("not 8-byte aligned"),
            std::string::npos)
      << parts.status().ToString();
}

TEST(ColumnarTest, CompactWriteFaultSiteFails) {
  FaultGuard guard;
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  const std::string path = TempPath("columnar_fault.rpqicol");
  ASSERT_TRUE(fault::Configure("graphdb.compact_write=once").ok());
  Status failed = WriteColumnarFile(path, db, alphabet, 1);
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("injected write failure"),
            std::string::npos);
  // Second attempt (fault exhausted) succeeds and the file parses.
  ASSERT_TRUE(WriteColumnarFile(path, db, alphabet, 1).ok());
  EXPECT_TRUE(OpenColumnarFile(path).ok());
  std::remove(path.c_str());
}

TEST(ColumnarTest, SnapshotLoaderSniffsFormatAndKeepsFingerprint) {
  // The serve-path property behind plan-cache warmth: loading the text
  // snapshot and loading its compacted twin yield the same fingerprint,
  // node ids, and eval results.
  const std::string text_path = TempPath("columnar_snap.txt");
  const std::string bin_path = TempPath("columnar_snap.rpqicol");
  WriteFile(text_path, kGraphText);

  obs::MetricsSnapshot before = obs::TakeMetricsSnapshot();
  StatusOr<std::shared_ptr<const service::GraphSnapshot>> from_text =
      service::LoadGraphSnapshot(text_path, SignedAlphabet());
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(obs::TakeMetricsSnapshot().DeltaSince(before).CounterValue(
                "service.snapshot.mmap_opens"),
            0);

  ASSERT_TRUE(WriteColumnarFile(bin_path, (*from_text)->db,
                                (*from_text)->alphabet,
                                (*from_text)->fingerprint)
                  .ok());
  before = obs::TakeMetricsSnapshot();
  StatusOr<std::shared_ptr<const service::GraphSnapshot>> from_bin =
      service::LoadGraphSnapshot(bin_path, SignedAlphabet());
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  EXPECT_EQ(obs::TakeMetricsSnapshot().DeltaSince(before).CounterValue(
                "service.snapshot.mmap_opens"),
            1);
  EXPECT_EQ((*from_bin)->fingerprint, (*from_text)->fingerprint);
  EXPECT_EQ((*from_bin)->db.NumNodes(), (*from_text)->db.NumNodes());
  EXPECT_EQ((*from_bin)->db.NumEdges(), (*from_text)->db.NumEdges());

  Nfa text_query = MustCompileRegex(MustParseRegex("r0 (r1 | r2^-)*"),
                                    (*from_text)->alphabet);
  Nfa bin_query = MustCompileRegex(MustParseRegex("r0 (r1 | r2^-)*"),
                                   (*from_bin)->alphabet);
  EXPECT_EQ(EvalRpqiAllPairs((*from_text)->db, CompileEvalPlan(text_query)),
            EvalRpqiAllPairs((*from_bin)->db, CompileEvalPlan(bin_query)));

  // A torn binary on disk degrades to a structured error, never UB.
  StatusOr<std::string> encoded = EncodeColumnar(
      (*from_text)->db, (*from_text)->alphabet, (*from_text)->fingerprint);
  ASSERT_TRUE(encoded.ok());
  WriteFile(bin_path, encoded->substr(0, encoded->size() / 2));
  StatusOr<std::shared_ptr<const service::GraphSnapshot>> torn =
      service::LoadGraphSnapshot(bin_path, SignedAlphabet());
  ASSERT_FALSE(torn.ok());
  EXPECT_NE(torn.status().message().find(bin_path), std::string::npos);
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(ColumnarTest, SaveGraphTextWorksInColumnarMode) {
  SignedAlphabet alphabet;
  GraphDb db = LoadFixture(&alphabet);
  SignedAlphabet reloaded_alphabet;
  StatusOr<GraphDb> reloaded =
      ReloadThroughColumnar(db, alphabet, &reloaded_alphabet);
  ASSERT_TRUE(reloaded.ok());
  // A mapped database saves the built one's text (both emit label-index
  // order over the same node and relation ids), and re-parsing it gives an
  // equivalent graph.
  EXPECT_EQ(SaveGraphText(*reloaded, reloaded_alphabet),
            SaveGraphText(db, alphabet));
  SignedAlphabet reparsed_alphabet;
  StatusOr<GraphDb> reparsed = LoadGraphText(
      SaveGraphText(*reloaded, reloaded_alphabet), &reparsed_alphabet);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(CheckGraphEquivalence(db, alphabet, *reparsed, reparsed_alphabet)
                  .ok());
}

// The empty graph is a valid indexed graph however it is made: its label
// index has zero rows and one offset, so validation, eval, saving and the
// columnar round trip all read it like any other graph.
TEST(ColumnarTest, EmptyGraphIsAValidIndexedGraph) {
  SignedAlphabet alphabet;
  StatusOr<GraphDb> comment_only = LoadGraphText("# comment only\n", &alphabet);
  ASSERT_TRUE(comment_only.ok()) << comment_only.status().ToString();
  ASSERT_EQ(alphabet.NumRelations(), 0);
  SignedAlphabet query_alphabet;
  query_alphabet.AddRelation("r");
  const FlatNfa plan = CompileEvalPlan(
      MustCompileRegex(MustParseRegex("r* | r^-"), query_alphabet));
  const GraphDb graphs[] = {GraphDb(), GraphBuilder().Build(), *comment_only};
  for (const GraphDb& db : graphs) {
    EXPECT_EQ(db.NumNodes(), 0);
    EXPECT_EQ(db.NumEdges(), 0);
    EXPECT_TRUE(ValidateGraphDb(db, 0).ok());
    EXPECT_TRUE(EvalRpqiAllPairs(db, plan).empty());
    EXPECT_EQ(SaveGraphText(db, alphabet), "");
    SignedAlphabet reloaded_alphabet;
    StatusOr<GraphDb> reloaded =
        ReloadThroughColumnar(db, alphabet, &reloaded_alphabet);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    EXPECT_EQ(reloaded->NumNodes(), 0);
    EXPECT_EQ(reloaded->NumEdges(), 0);
    EXPECT_TRUE(ValidateGraphDb(*reloaded, 0).ok());
    EXPECT_EQ(SaveGraphText(*reloaded, reloaded_alphabet), "");
    EXPECT_TRUE(
        CheckGraphEquivalence(db, alphabet, *reloaded, reloaded_alphabet)
            .ok());
  }
}

}  // namespace
}  // namespace rpqi
