#include "graphdb/columnar.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <utility>

#include "base/hash.h"
#include "base/logging.h"
#include "fault/fault.h"

namespace rpqi {

namespace {

/// The fixed on-disk header. Field order keeps every member naturally
/// aligned, so the struct layout is the wire layout with no packing pragma;
/// the static_asserts below pin that (a compiler inserting padding would
/// change sizeof and fail the build, not corrupt files).
struct ColumnarSection {
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

struct ColumnarHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian_tag;
  uint64_t file_bytes;
  uint64_t payload_checksum;
  uint64_t fingerprint;
  uint32_t num_nodes;
  uint32_t num_relations;
  uint64_t num_edges;
  ColumnarSection sections[kColumnarSectionCount];
};

static_assert(sizeof(ColumnarHeader) == 200,
              "on-disk header layout changed; bump kColumnarVersion");
static_assert(alignof(ColumnarHeader) == 8, "header must be 8-byte aligned");
static_assert(std::is_trivially_copyable_v<ColumnarHeader>,
              "header is memcpy'd to/from disk");
static_assert(sizeof(ColumnarHeader) % 8 == 0,
              "payload must start 8-byte aligned");

constexpr size_t kHeaderBytes = sizeof(ColumnarHeader);

size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

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

constexpr size_t kChecksumFieldOffset = 16 /* magic + version + endian */ + 8;
static_assert(kChecksumFieldOffset == offsetof(ColumnarHeader,
                                               payload_checksum));

/// Checksum of the whole file except the 8 checksum bytes themselves: the
/// header fields (fingerprint, counts, section table) are covered too, so a
/// bit flip *anywhere* in the file is detected, not only in the payload.
uint64_t FileChecksum(const char* data, size_t size) {
  uint64_t h = 0x52505149434f4c31ULL;  // "RPQICOL1"
  h = ChecksumSpan(h, data, kChecksumFieldOffset);
  h = ChecksumSpan(h, data + kChecksumFieldOffset + 8,
                   size - kChecksumFieldOffset - 8);
  return h;
}

std::string Ctx(std::string_view source_name) {
  if (source_name.empty()) return "columnar: ";
  return std::string(source_name) + ": ";
}

std::string Num(uint64_t n) { return std::to_string(n); }

/// Read-only MAP_PRIVATE mapping; unmapped when the last shared_ptr holder
/// (ColumnarParts::backing, and through it any derived GraphDb) drops.
class MappedFile {
 public:
  MappedFile(const char* data, size_t size) : data_(data), size_(size) {}
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (data_ != nullptr) {
      ::munmap(const_cast<char*>(data_), size_);
    }
  }
  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const char* data_;
  size_t size_;
};

std::string ErrnoSuffix() { return " (errno " + std::to_string(errno) + ")"; }

/// Appends `count` elements of `src` to `out` as raw little-endian bytes.
template <typename T>
void AppendArray(std::string* out, const T* src, size_t count) {
  size_t bytes = count * sizeof(T);
  size_t at = out->size();
  out->resize(at + bytes);
  if (bytes > 0) std::memcpy(out->data() + at, src, bytes);
}

}  // namespace

bool IsColumnarSnapshot(std::string_view prefix) {
  return prefix.size() >= sizeof(kColumnarMagic) &&
         std::memcmp(prefix.data(), kColumnarMagic, sizeof(kColumnarMagic)) ==
             0;
}

StatusOr<std::string> EncodeColumnar(const GraphDb& db,
                                     const SignedAlphabet& alphabet,
                                     uint64_t fingerprint) {
  const int num_relations = alphabet.NumRelations();
  const LabelCsr& csr = db.label_csr();
  if (csr.num_relations > num_relations) {
    return Status::InvalidArgument(
        "columnar: graph names relation id " + Num(csr.num_relations - 1) +
        " but the alphabet declares only " + Num(num_relations) +
        " relations");
  }
  const int n = db.NumNodes();
  const int64_t num_edges = db.NumEdges();

  // Node dictionary: names in id order plus the sorted-by-name permutation.
  std::string name_blob;
  std::vector<uint64_t> name_offsets(1, 0);
  for (int id = 0; id < n; ++id) {
    name_blob.append(db.NodeName(id));
    name_offsets.push_back(name_blob.size());
  }
  std::vector<uint32_t> by_name(n);
  for (int id = 0; id < n; ++id) by_name[id] = static_cast<uint32_t>(id);
  std::sort(by_name.begin(), by_name.end(), [&](uint32_t a, uint32_t b) {
    return db.NodeName(static_cast<int>(a)) < db.NodeName(static_cast<int>(b));
  });

  std::string relation_blob;
  std::vector<uint64_t> relation_offsets(1, 0);
  for (int r = 0; r < num_relations; ++r) {
    relation_blob.append(alphabet.RelationName(r));
    relation_offsets.push_back(relation_blob.size());
  }

  // CSR sections, rebuilt row by row so an index narrower than the alphabet
  // (a built index ends at the highest relation with an edge) pads with
  // empty spans.
  const size_t rows = static_cast<size_t>(num_relations) * n;
  std::vector<uint64_t> out_offsets(rows + 1, 0);
  std::vector<uint64_t> in_offsets(rows + 1, 0);
  std::vector<uint32_t> out_targets;
  std::vector<uint32_t> in_targets;
  out_targets.reserve(static_cast<size_t>(num_edges));
  in_targets.reserve(static_cast<size_t>(num_edges));
  for (int r = 0; r < num_relations; ++r) {
    for (int node = 0; node < n; ++node) {
      size_t row = static_cast<size_t>(r) * n + node;
      for (uint32_t to : csr.Out(node, r)) out_targets.push_back(to);
      out_offsets[row + 1] = out_targets.size();
      for (uint32_t from : csr.In(node, r)) in_targets.push_back(from);
      in_offsets[row + 1] = in_targets.size();
    }
  }
  RPQI_CHECK(static_cast<int64_t>(out_targets.size()) == num_edges);
  RPQI_CHECK(static_cast<int64_t>(in_targets.size()) == num_edges);

  ColumnarHeader header{};
  std::memcpy(header.magic, kColumnarMagic, sizeof(kColumnarMagic));
  header.version = kColumnarVersion;
  header.endian_tag = kColumnarEndianTag;
  header.fingerprint = fingerprint;
  header.num_nodes = static_cast<uint32_t>(n);
  header.num_relations = static_cast<uint32_t>(num_relations);
  header.num_edges = static_cast<uint64_t>(num_edges);

  std::string out(kHeaderBytes, '\0');
  auto add_section = [&out](int id, ColumnarHeader* h, auto&& append) {
    out.resize(Align8(out.size()), '\0');
    h->sections[id].offset = out.size();
    append();
    h->sections[id].bytes = out.size() - h->sections[id].offset;
  };
  add_section(kSectionNodeNameBlob, &header,
              [&] { out.append(name_blob); });
  add_section(kSectionNodeNameOffsets, &header, [&] {
    AppendArray(&out, name_offsets.data(), name_offsets.size());
  });
  add_section(kSectionNodesByName, &header,
              [&] { AppendArray(&out, by_name.data(), by_name.size()); });
  add_section(kSectionRelationNameBlob, &header,
              [&] { out.append(relation_blob); });
  add_section(kSectionRelationNameOffsets, &header, [&] {
    AppendArray(&out, relation_offsets.data(), relation_offsets.size());
  });
  add_section(kSectionOutOffsets, &header, [&] {
    AppendArray(&out, out_offsets.data(), out_offsets.size());
  });
  add_section(kSectionOutTargets, &header, [&] {
    AppendArray(&out, out_targets.data(), out_targets.size());
  });
  add_section(kSectionInOffsets, &header, [&] {
    AppendArray(&out, in_offsets.data(), in_offsets.size());
  });
  add_section(kSectionInTargets, &header, [&] {
    AppendArray(&out, in_targets.data(), in_targets.size());
  });
  out.resize(Align8(out.size()), '\0');

  header.file_bytes = out.size();
  header.payload_checksum = 0;
  std::memcpy(out.data(), &header, kHeaderBytes);
  header.payload_checksum = FileChecksum(out.data(), out.size());
  std::memcpy(out.data(), &header, kHeaderBytes);
  return out;
}

Status WriteColumnarFile(const std::string& path, const GraphDb& db,
                         const SignedAlphabet& alphabet,
                         uint64_t fingerprint) {
  RPQI_ASSIGN_OR_RETURN(std::string encoded,
                        EncodeColumnar(db, alphabet, fingerprint));
  // Models write(2)/fsync failing mid-compact; the temp file is the only
  // casualty, never a torn snapshot under the final name.
  RPQI_FAULT_POINT("graphdb.compact_write",
                   Status::InvalidArgument("cannot write '" + path +
                                           "': injected write failure"));
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open '" + tmp + "' for writing" +
                                   ErrnoSuffix());
  }
  auto fail = [&](const std::string& msg) {
    Status failure = Status::InvalidArgument(msg + ErrnoSuffix());
    if (fd >= 0) ::close(fd);
    // The write failure is the error being reported; removing the orphaned
    // tmp file is best-effort cleanup.
    (void)std::remove(tmp.c_str());  // lint: allow-discard cleanup only
    return failure;
  };
  size_t written = 0;
  while (written < encoded.size()) {
    ssize_t n =
        ::write(fd, encoded.data() + written, encoded.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("error writing '" + tmp + "'");
    }
    written += static_cast<size_t>(n);
  }
  // Durability before visibility: the data must reach the disk before the
  // rename can, or a power loss could persist the rename alone and leave a
  // garbage file under the final name.
  if (::fsync(fd) != 0) {
    return fail("cannot fsync '" + tmp + "'");
  }
  if (::close(fd) != 0) {
    fd = -1;
    return fail("error closing '" + tmp + "'");
  }
  fd = -1;
  // Atomic replace: a reader (or a crash, thanks to the fsync ordering
  // above) observes either the old file or the complete new one, never a
  // prefix.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("cannot rename '" + tmp + "' to '" + path + "'");
  }
  // Persist the rename itself: fsync the parent directory. Best-effort —
  // the snapshot is already valid in this boot; a lost rename merely
  // resurfaces the old file.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? std::string("/")
                                            : path.substr(0, slash));
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);  // lint: allow-discard best-effort durability
    ::close(dir_fd);
  }
  return Status::Ok();
}

StatusOr<ColumnarParts> ParseColumnarView(const char* data, size_t size,
                                          std::shared_ptr<const void> backing,
                                          std::string_view source_name) {
  const std::string ctx = Ctx(source_name);
  if (reinterpret_cast<uintptr_t>(data) % 8 != 0) {
    return Status::InvalidArgument(ctx +
                                   "buffer is not 8-byte aligned; the "
                                   "columnar arrays are pointer-cast views");
  }
  if (size < kHeaderBytes) {
    return Status::InvalidArgument(ctx + "truncated: " + Num(size) +
                                   " bytes, but the header alone is " +
                                   Num(kHeaderBytes));
  }
  ColumnarHeader header;
  std::memcpy(&header, data, kHeaderBytes);
  if (!IsColumnarSnapshot({data, size})) {
    return Status::InvalidArgument(ctx + "byte 0: bad magic (not a columnar "
                                         "snapshot)");
  }
  if (header.version != kColumnarVersion) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(ColumnarHeader, version)) +
        ": unsupported version " + Num(header.version) + " (this build reads " +
        Num(kColumnarVersion) + ")");
  }
  if (header.endian_tag != kColumnarEndianTag) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(ColumnarHeader, endian_tag)) +
        ": endianness tag mismatch (written on a foreign byte order)");
  }
  if (header.file_bytes != size) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(ColumnarHeader, file_bytes)) +
        ": header declares " + Num(header.file_bytes) +
        " bytes but the file holds " + Num(size) +
        " (truncated or torn write)");
  }
  const uint64_t n = header.num_nodes;
  const uint64_t r = header.num_relations;
  const uint64_t e = header.num_edges;
  // The absolute caps keep every byte-size product below from wrapping
  // uint64 (e < 2^61 so e*4 < 2^63; r, n <= 2^31 so r*n <= 2^62 computes
  // exactly, and r*n+1 <= 2^60 so (r*n+1)*8 <= 2^63). Belt and suspenders:
  // each count-derived section must also fit in the mapped file, so the
  // counts are additionally capped by `size` — a crafted header cannot make
  // the expected-size arithmetic wrap and then smuggle tiny sections past
  // the table check below.
  if (n > (uint64_t{1} << 31) || r > (uint64_t{1} << 31) ||
      e >= (uint64_t{1} << 61) || r * n + 1 > (uint64_t{1} << 60) ||
      e > size / 4 || r * n + 1 > size / 8 || n + 1 > size / 8) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(ColumnarHeader, num_nodes)) +
        ": implausible counts (nodes " + Num(n) + ", relations " + Num(r) +
        ", edges " + Num(e) + ")");
  }

  // Section table: every section 8-byte aligned and inside the file, with
  // the byte size the counts dictate. After these checks the pointer-cast
  // views below cannot read out of bounds.
  const uint64_t expected_bytes[kColumnarSectionCount] = {
      header.sections[kSectionNodeNameBlob].bytes,  // blob: any size
      (n + 1) * 8,
      n * 4,
      header.sections[kSectionRelationNameBlob].bytes,
      (r + 1) * 8,
      (r * n + 1) * 8,
      e * 4,
      (r * n + 1) * 8,
      e * 4,
  };
  for (int s = 0; s < kColumnarSectionCount; ++s) {
    const ColumnarSection& section = header.sections[s];
    const uint64_t table_at = offsetof(ColumnarHeader, sections) +
                              static_cast<uint64_t>(s) * sizeof(ColumnarSection);
    if (section.offset % 8 != 0) {
      return Status::InvalidArgument(
          ctx + "byte " + Num(table_at) + ": section " + Num(s) + " offset " +
          Num(section.offset) + " is not 8-byte aligned");
    }
    if (section.offset < kHeaderBytes || section.offset > size ||
        section.bytes > size - section.offset) {
      return Status::InvalidArgument(
          ctx + "byte " + Num(table_at) + ": section " + Num(s) + " spans [" +
          Num(section.offset) + ", " + Num(section.offset + section.bytes) +
          ") outside the file's " + Num(size) + " bytes");
    }
    if (section.bytes != expected_bytes[s]) {
      return Status::InvalidArgument(
          ctx + "byte " + Num(table_at) + ": section " + Num(s) + " holds " +
          Num(section.bytes) + " bytes, expected " + Num(expected_bytes[s]));
    }
  }

  const uint64_t computed = FileChecksum(data, size);
  if (computed != header.payload_checksum) {
    return Status::InvalidArgument(
        ctx + "byte " + Num(offsetof(ColumnarHeader, payload_checksum)) +
        ": checksum mismatch over the file's " + Num(size) +
        " bytes: stored " + Num(header.payload_checksum) + ", computed " +
        Num(computed) + " (corrupt or torn write)");
  }

  ColumnarParts parts;
  parts.backing = std::move(backing);
  parts.fingerprint = header.fingerprint;
  parts.file_bytes = static_cast<int64_t>(size);
  parts.num_nodes = static_cast<int>(n);
  parts.num_relations = static_cast<int>(r);
  parts.num_edges = static_cast<int64_t>(e);
  auto section_ptr = [&](int s) {
    return data + header.sections[s].offset;
  };
  parts.name_blob = section_ptr(kSectionNodeNameBlob);
  parts.name_offsets =
      reinterpret_cast<const uint64_t*>(section_ptr(kSectionNodeNameOffsets));
  parts.nodes_by_name =
      reinterpret_cast<const uint32_t*>(section_ptr(kSectionNodesByName));
  parts.relation_blob = section_ptr(kSectionRelationNameBlob);
  parts.relation_offsets = reinterpret_cast<const uint64_t*>(
      section_ptr(kSectionRelationNameOffsets));
  parts.out_offsets =
      reinterpret_cast<const uint64_t*>(section_ptr(kSectionOutOffsets));
  parts.out_targets =
      reinterpret_cast<const uint32_t*>(section_ptr(kSectionOutTargets));
  parts.in_offsets =
      reinterpret_cast<const uint64_t*>(section_ptr(kSectionInOffsets));
  parts.in_targets =
      reinterpret_cast<const uint32_t*>(section_ptr(kSectionInTargets));

  // Structural invariants the checksum cannot express (they guard against a
  // buggy or hostile *encoder*, not bit rot): offset monotonicity, target
  // bounds, per-span sortedness, dictionary order. All linear scans.
  auto check_offsets = [&](int s, const uint64_t* offsets, uint64_t count,
                           uint64_t limit, const char* what) -> Status {
    const uint64_t base = header.sections[s].offset;
    if (offsets[0] != 0) {
      return Status::InvalidArgument(ctx + "byte " + Num(base) + ": " + what +
                                     " offsets start at " + Num(offsets[0]) +
                                     ", expected 0");
    }
    for (uint64_t i = 0; i < count; ++i) {
      if (offsets[i + 1] < offsets[i]) {
        return Status::InvalidArgument(
            ctx + "byte " + Num(base + (i + 1) * 8) + ": " + what +
            " offsets decrease at index " + Num(i + 1));
      }
    }
    if (offsets[count] != limit) {
      return Status::InvalidArgument(
          ctx + "byte " + Num(base + count * 8) + ": " + what +
          " offsets end at " + Num(offsets[count]) + ", expected " +
          Num(limit));
    }
    return Status::Ok();
  };
  RPQI_RETURN_IF_ERROR(
      check_offsets(kSectionNodeNameOffsets, parts.name_offsets, n,
                    header.sections[kSectionNodeNameBlob].bytes, "node name"));
  RPQI_RETURN_IF_ERROR(check_offsets(
      kSectionRelationNameOffsets, parts.relation_offsets, r,
      header.sections[kSectionRelationNameBlob].bytes, "relation name"));
  RPQI_RETURN_IF_ERROR(check_offsets(kSectionOutOffsets, parts.out_offsets,
                                     r * n, e, "out adjacency"));
  RPQI_RETURN_IF_ERROR(check_offsets(kSectionInOffsets, parts.in_offsets,
                                     r * n, e, "in adjacency"));

  auto check_targets = [&](const uint64_t* offsets, int targets_section,
                           const uint32_t* targets,
                           const char* what) -> Status {
    const uint64_t base = header.sections[targets_section].offset;
    for (uint64_t row = 0; row < r * n; ++row) {
      for (uint64_t i = offsets[row]; i < offsets[row + 1]; ++i) {
        if (targets[i] >= n) {
          return Status::InvalidArgument(
              ctx + "byte " + Num(base + i * 4) + ": " + what + " target " +
              Num(targets[i]) + " out of range [0, " + Num(n) + ")");
        }
        if (i > offsets[row] && targets[i] < targets[i - 1]) {
          return Status::InvalidArgument(
              ctx + "byte " + Num(base + i * 4) + ": " + what +
              " span for row " + Num(row) + " is not sorted");
        }
      }
    }
    return Status::Ok();
  };
  RPQI_RETURN_IF_ERROR(check_targets(parts.out_offsets, kSectionOutTargets,
                                     parts.out_targets, "out"));
  RPQI_RETURN_IF_ERROR(check_targets(parts.in_offsets, kSectionInTargets,
                                     parts.in_targets, "in"));

  // Dictionary order: nodes_by_name lists strictly increasing names; N
  // in-range entries with distinct names is necessarily a permutation.
  {
    const uint64_t base = header.sections[kSectionNodesByName].offset;
    auto name_at = [&](uint32_t id) {
      return std::string_view(parts.name_blob + parts.name_offsets[id],
                              static_cast<size_t>(parts.name_offsets[id + 1] -
                                                  parts.name_offsets[id]));
    };
    for (uint64_t i = 0; i < n; ++i) {
      if (parts.nodes_by_name[i] >= n) {
        return Status::InvalidArgument(
            ctx + "byte " + Num(base + i * 4) + ": dictionary entry " +
            Num(parts.nodes_by_name[i]) + " out of range [0, " + Num(n) + ")");
      }
      if (i > 0 &&
          name_at(parts.nodes_by_name[i]) <= name_at(parts.nodes_by_name[i - 1])) {
        return Status::InvalidArgument(
            ctx + "byte " + Num(base + i * 4) +
            ": dictionary names not strictly increasing at index " + Num(i));
      }
    }
  }
  return parts;
}

StatusOr<ColumnarParts> OpenColumnarFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open '" + path + "'" +
                                   ErrnoSuffix());
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status failure = Status::InvalidArgument("cannot stat '" + path + "'" +
                                             ErrnoSuffix());
    ::close(fd);
    return failure;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return Status::InvalidArgument(
        Ctx(path) + "truncated: " + Num(size) +
        " bytes, but the header alone is " + Num(kHeaderBytes));
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the file
  if (addr == MAP_FAILED) {
    return Status::InvalidArgument("cannot mmap '" + path + "'" +
                                   ErrnoSuffix());
  }
  auto mapping =
      std::make_shared<MappedFile>(static_cast<const char*>(addr), size);
  // Read data/size before the move: argument evaluation order is
  // unspecified, so `mapping->data()` must not race the move in one call.
  const char* base = mapping->data();
  const size_t mapped_size = mapping->size();
  return ParseColumnarView(base, mapped_size, std::move(mapping), path);
}

StatusOr<ColumnarParts> DecodeColumnar(std::shared_ptr<const std::string> bytes,
                                       std::string_view source_name) {
  RPQI_CHECK(bytes != nullptr);
  const char* data = bytes->data();
  size_t size = bytes->size();
  return ParseColumnarView(data, size, std::move(bytes), source_name);
}

GraphDb MakeColumnarGraphDb(const ColumnarParts& parts,
                            SignedAlphabet* alphabet) {
  std::vector<int> relation_ids;
  relation_ids.reserve(parts.num_relations);
  for (int r = 0; r < parts.num_relations; ++r) {
    relation_ids.push_back(
        alphabet->AddRelation(std::string(parts.RelationName(r))));
  }
  const int num_relations = alphabet->NumRelations();
  bool identity = num_relations == parts.num_relations;
  for (int i = 0; identity && i < parts.num_relations; ++i) {
    identity = relation_ids[i] == i;
  }

  ColumnarGraphView view;
  view.num_nodes = parts.num_nodes;
  view.num_edges = parts.num_edges;
  view.name_blob = parts.name_blob;
  view.name_offsets = parts.name_offsets;
  view.nodes_by_name = parts.nodes_by_name;
  view.backing = parts.backing;
  view.csr.num_nodes = parts.num_nodes;
  if (identity) {
    view.csr.num_relations = parts.num_relations;
    view.csr.ext_out_offsets = parts.out_offsets;
    view.csr.ext_out_targets = parts.out_targets;
    view.csr.ext_in_offsets = parts.in_offsets;
    view.csr.ext_in_targets = parts.in_targets;
    return GraphDb::FromColumnar(std::move(view));
  }

  // Remapped relation ids (the caller's alphabet numbered them differently):
  // copy each file-relation row block into its mapped row. Within-span order
  // is untouched, so sortedness survives. Rare path — only pre-populated
  // alphabets (e.g. `rewrite --db` after registering view relations) land
  // here — so the in-memory copy is acceptable.
  const size_t n = static_cast<size_t>(parts.num_nodes);
  const size_t rows = static_cast<size_t>(num_relations) * n;
  LabelCsr& csr = view.csr;
  csr.num_relations = num_relations;
  csr.out_offsets_store.assign(rows + 1, 0);
  csr.in_offsets_store.assign(rows + 1, 0);
  for (int file_r = 0; file_r < parts.num_relations; ++file_r) {
    const size_t src_base = static_cast<size_t>(file_r) * n;
    const size_t dst_base = static_cast<size_t>(relation_ids[file_r]) * n;
    for (size_t node = 0; node < n; ++node) {
      uint64_t len = parts.out_offsets[src_base + node + 1] -
                     parts.out_offsets[src_base + node];
      csr.out_offsets_store[dst_base + node + 1] = len;
      len = parts.in_offsets[src_base + node + 1] -
            parts.in_offsets[src_base + node];
      csr.in_offsets_store[dst_base + node + 1] = len;
    }
  }
  for (size_t row = 0; row < rows; ++row) {
    csr.out_offsets_store[row + 1] += csr.out_offsets_store[row];
    csr.in_offsets_store[row + 1] += csr.in_offsets_store[row];
  }
  csr.out_targets_store.resize(static_cast<size_t>(parts.num_edges));
  csr.in_targets_store.resize(static_cast<size_t>(parts.num_edges));
  for (int file_r = 0; file_r < parts.num_relations; ++file_r) {
    const size_t src_base = static_cast<size_t>(file_r) * n;
    const size_t dst_base = static_cast<size_t>(relation_ids[file_r]) * n;
    for (size_t node = 0; node < n; ++node) {
      uint64_t src_at = parts.out_offsets[src_base + node];
      uint64_t count = parts.out_offsets[src_base + node + 1] - src_at;
      std::copy_n(parts.out_targets + src_at, count,
                  csr.out_targets_store.begin() +
                      static_cast<int64_t>(
                          csr.out_offsets_store[dst_base + node]));
      src_at = parts.in_offsets[src_base + node];
      count = parts.in_offsets[src_base + node + 1] - src_at;
      std::copy_n(parts.in_targets + src_at, count,
                  csr.in_targets_store.begin() +
                      static_cast<int64_t>(
                          csr.in_offsets_store[dst_base + node]));
    }
  }
  return GraphDb::FromColumnar(std::move(view));
}

namespace {

/// Per-node out-edges as (relation name, target name) pairs, sorted — the
/// representation CheckGraphEquivalence compares, independent of node ids
/// and relation numbering.
std::vector<std::pair<std::string_view, std::string_view>> OutEdgeNames(
    const GraphDb& db, const SignedAlphabet& alphabet, int node) {
  std::vector<std::pair<std::string_view, std::string_view>> edges;
  for (int r = 0; r < db.label_csr().num_relations; ++r) {
    for (uint32_t to : db.OutTargets(node, r)) {
      edges.emplace_back(alphabet.RelationName(r),
                         db.NodeName(static_cast<int>(to)));
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

}  // namespace

Status CheckGraphEquivalence(const GraphDb& a, const SignedAlphabet& alpha_a,
                             const GraphDb& b, const SignedAlphabet& alpha_b) {
  if (a.NumNodes() != b.NumNodes()) {
    return Status::InvalidArgument(
        "round-trip mismatch: " + std::to_string(a.NumNodes()) + " vs " +
        std::to_string(b.NumNodes()) + " nodes");
  }
  if (a.NumEdges() != b.NumEdges()) {
    return Status::InvalidArgument(
        "round-trip mismatch: " + std::to_string(a.NumEdges()) + " vs " +
        std::to_string(b.NumEdges()) + " edges");
  }
  for (int node = 0; node < a.NumNodes(); ++node) {
    const std::string name(a.NodeName(node));
    int other = b.NodeId(name);
    if (other < 0) {
      return Status::InvalidArgument("round-trip mismatch: node '" + name +
                                     "' missing from the reloaded graph");
    }
    auto ours = OutEdgeNames(a, alpha_a, node);
    auto theirs = OutEdgeNames(b, alpha_b, other);
    if (ours != theirs) {
      return Status::InvalidArgument(
          "round-trip mismatch: node '" + name + "' has " +
          std::to_string(ours.size()) + " out-edges vs " +
          std::to_string(theirs.size()) +
          " in the reloaded graph (or differing labels/targets)");
    }
  }
  return Status::Ok();
}

}  // namespace rpqi
