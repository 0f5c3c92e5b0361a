// Durable shard checkpoints — the crash-safety substrate of the sharded
// campaign runtime.
//
// One checkpoint file holds everything a killed shard needs to resume
// bit-identically: the serialized OnlineCpa/OnlineDpa state (shared
// per-sample sums and per-class sums), the first unacquired trace
// index, and the mid-state of the shard's running SHA-256 trace-stream
// digest, all under a config fingerprint that ties the record to one
// campaign configuration (Campaign::sharded()'s fingerprint: target name,
// key, seed, budget, geometry, attack and trace physics — not the
// netlist, ROADMAP open item 2). The record is versioned,
// length-prefixed, and sealed by the SHA-256 of its payload:
//
//   u32 magic 'QDSK' | u32 version | u64 payload_len |
//   payload[payload_len] | sha256(payload)[32]
//
// Files are only ever published through util::atomic_write_file with a
// two-generation rotation (`shard-K.ckpt` + `shard-K.ckpt.prev`), so a
// crash at any byte boundary leaves a previous complete record on disk.
// The loader rejects everything else with a named CheckpointError —
// truncated, digest-corrupt, version-mismatched, or belonging to a
// different campaign geometry — and recover_checkpoint() walks the
// generations newest-first, adopting the first record that validates.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "qdi/util/atomic_file.hpp"
#include "qdi/util/sha256.hpp"

namespace qdi::campaign {

/// Named checkpoint rejection. The kind is what a shard's recovery
/// report (ShardReport::recovery) surfaces: a degraded run says WHY a shard restarted.
class CheckpointError : public std::runtime_error {
 public:
  enum class Kind {
    Truncated,        ///< file ends before the declared record length
    Corrupt,          ///< bad magic, digest mismatch, or trailing bytes
    VersionMismatch,  ///< record version this build does not speak
    GeometryMismatch, ///< fingerprint / shard / range / index out of spec
  };

  CheckpointError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const noexcept { return kind_; }
  const char* kind_name() const noexcept;

 private:
  Kind kind_;
};

inline constexpr std::uint32_t kCheckpointMagic = 0x4b534451u;  // "QDSK"
/// Version 2: accumulator snapshots hold per-class sums (version 1 held
/// per-guess sums and is rejected as version-mismatch).
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// The decoded checkpoint payload.
struct ShardCheckpoint {
  std::uint64_t fingerprint = 0;  ///< campaign config identity
  std::uint64_t shard = 0;
  std::uint64_t lo = 0;   ///< shard trace range [lo, hi)
  std::uint64_t hi = 0;
  std::uint64_t next = 0; ///< first unacquired global trace index
  util::Sha256::State digest{};  ///< stream digest state at `next`
  std::vector<std::uint8_t> acc_state;  ///< OnlineCpa/OnlineDpa snapshot
};

std::vector<std::uint8_t> encode_checkpoint(const ShardCheckpoint& c);

/// Decode + structural validation (magic, version, length, payload
/// digest, internal consistency). Throws CheckpointError; never returns
/// a partially decoded record.
ShardCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes);

/// Reject a structurally valid record that belongs to a different
/// campaign: wrong fingerprint, shard id, range, or a committed index
/// outside [lo, hi]. Throws CheckpointError(GeometryMismatch).
void validate_checkpoint_identity(const ShardCheckpoint& c,
                                  std::uint64_t fingerprint,
                                  std::uint64_t shard, std::uint64_t lo,
                                  std::uint64_t hi);

/// Canonical file names under the checkpoint directory.
std::string checkpoint_path(const std::string& dir, std::size_t shard);
std::string checkpoint_prev_path(const std::string& dir, std::size_t shard);

/// mkdir -p for the checkpoint directory (POSIX, EEXIST is success).
/// commit_checkpoint calls this itself; Campaign::sharded() also calls
/// it up front so a run fails fast on an uncreatable directory instead of
/// at the first commit.
void ensure_checkpoint_dir(const std::string& dir);

/// Durably publish `c` as shard `c.shard`'s newest checkpoint. The
/// previous generation survives as `.prev` (the rename rotation is
/// itself crash-safe: a kill between the two renames leaves `.prev`
/// holding the last good record, which recovery adopts). `durability`
/// picks whether the write also fsyncs (survives power loss) or only
/// renames atomically (survives any process kill; see
/// util::Durability).
void commit_checkpoint(const std::string& dir, const ShardCheckpoint& c,
                       util::Durability durability = util::Durability::Fsync);

/// Outcome of a recovery scan over one shard's checkpoint generations.
struct RecoveredCheckpoint {
  ShardCheckpoint ckpt;
  std::string file;   ///< which generation was adopted
  std::string notes;  ///< named rejections encountered on the way (if any)
};

/// Scan `shard`'s generations newest-first and adopt the first record
/// that (a) decodes + validates against the expected identity and
/// (b) passes the caller's `adopt` hook (which should restore the
/// accumulator/digest state and throw — e.g. dpa::StateError — to veto).
/// Returns nullopt when no generation survives; `notes` (also filled on
/// success) names every rejected generation and why, so the caller's
/// report can say "fell back to .prev: digest mismatch on .ckpt".
std::optional<RecoveredCheckpoint> recover_checkpoint(
    const std::string& dir, std::size_t shard, std::uint64_t fingerprint,
    std::uint64_t lo, std::uint64_t hi,
    const std::function<void(const ShardCheckpoint&)>& adopt,
    std::string* notes = nullptr);

}  // namespace qdi::campaign
