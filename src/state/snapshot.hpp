#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// \file snapshot.hpp
/// The uniform checkpoint/restore layer: a versioned, tagged binary format
/// and the `Snapshottable` contract every stateful component of both models
/// implements.
///
/// Design rules (these are what make restore-then-run provably cycle-exact
/// and keep the format debuggable when it is not):
///
///  * **Tagged, not positional.**  Every record carries a one-byte type tag
///    and sections carry their name; a reader that drifts out of sync with
///    the writer fails immediately with the offset and both tags instead of
///    silently reinterpreting bytes.
///  * **Versioned.**  The header stores a format version; mismatches are
///    rejected up front with a clear message (no attempt to migrate —
///    checkpoints are short-lived artifacts, not archives).
///  * **Checksummed.**  A CRC-32 of the payload trails the file, so
///    truncated or bit-flipped checkpoints are rejected before any
///    component sees partial state.
///  * **Canonical.**  Writers emit containers in a deterministic order
///    (e.g. sparse memory pages sorted by address), so
///    serialize -> restore -> serialize is byte-identical — the round-trip
///    property the tests pin down.
///
/// Configuration is *not* stored at this layer: a snapshot captures dynamic
/// state only and is restored into a platform freshly constructed from its
/// configuration.  Checkpoint *files* embed the serialized scenario next to
/// the platform payload (see core/checkpoint.hpp) so they are
/// self-describing.

namespace ahbp::state {

/// Snapshot format version.  Bump on any layout change; readers reject
/// other versions.  v2: checkpoint headers carry embedded trace-backed
/// stimulus (count + per-master trace text) after the scenario.  v3:
/// MasterProfile carries per-master stall-attribution counters.  v4:
/// ScriptSource records a content hash of its consumed script prefix, so a
/// warm-up fork whose stimulus diverges from the snapshotted run is
/// detected (ForkDivergence) instead of silently replaying inconsistent
/// state.  v5: `farm-msg` envelope for the process sweep farm's wire
/// protocol.  v6: `farm-msg` dropped along with the farm.  v7: the RTL
/// `signals` section lists each bit-level bus as one packed entry (e.g.
/// `pin.haddr`) instead of one entry per pin.  v8: the RTL clock's edge
/// counter and run flag leave `rtl-fabric`, and the TLM's `now` and
/// evaluation count sit directly in `platform` (no `cycle-kernel`
/// sub-section).
inline constexpr std::uint32_t kFormatVersion = 8;

/// Any save/restore failure: malformed file, version mismatch, type or
/// section-tag mismatch, or a component-level incompatibility (e.g. a
/// snapshot taken with 4 masters restored into a 2-master platform).
class StateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A restore that is *structurally* legal but whose stimulus history
/// differs from the snapshotted run: the platform shape matches, yet the
/// transactions the snapshot already issued are not the ones this
/// configuration would have issued (e.g. a sweep axis changed a master's
/// seed or pattern).  Recoverable by running the configuration cold —
/// sweep::SweepRunner catches exactly this type to demote such points
/// instead of failing them, while genuine structural mismatches stay
/// fatal StateErrors.
class ForkDivergence : public StateError {
 public:
  using StateError::StateError;
};

/// Serializer for the tagged binary format.  Typed `put` overloads append
/// records; `begin(tag)` / `end()` bracket named sections.  `finish()`
/// seals header + payload + CRC into the final byte vector.
class StateWriter {
 public:
  StateWriter() = default;

  void begin(std::string_view tag);
  void end();

  void put_bool(bool v);
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  void put_str(std::string_view v);
  void put_blob(const void* data, std::size_t bytes);

  /// Seal the stream: returns magic + version + payload + CRC-32.
  /// The writer must be balanced (every begin() matched by an end()).
  std::vector<std::uint8_t> finish() const;

  /// finish() straight to a file.  Throws StateError on I/O failure.
  void write_file(const std::string& path) const;

 private:
  void tag_byte(std::uint8_t t) { payload_.push_back(t); }
  void raw_u32(std::uint32_t v);
  void raw_u64(std::uint64_t v);

  std::vector<std::uint8_t> payload_;
  unsigned depth_ = 0;
};

/// Deserializer.  Validates magic/version/CRC on construction, then reads
/// must mirror the writes exactly; any divergence throws StateError with
/// the payload offset and the expected/found tags.
class StateReader {
 public:
  /// Owning: takes the whole file image.
  explicit StateReader(std::vector<std::uint8_t> bytes);

  /// Non-owning view (e.g. one warm-up snapshot shared by many sweep
  /// workers).  `data` must outlive the reader.
  StateReader(const std::uint8_t* data, std::size_t size);

  /// Load + validate a checkpoint file.  Throws StateError (unreadable,
  /// truncated, corrupted, wrong magic/version).
  static StateReader from_file(const std::string& path);

  // Copying an owning reader would leave the copy's cursor pointing into
  // the source's buffer; moves keep the buffer alive and are fine.
  StateReader(const StateReader&) = delete;
  StateReader& operator=(const StateReader&) = delete;
  StateReader(StateReader&&) = default;
  StateReader& operator=(StateReader&&) = default;

  void enter(std::string_view tag);
  void leave();

  bool get_bool();
  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();

  /// Read a container length, bounded by the remaining payload (each
  /// element still owes at least `min_bytes_per_item` bytes — 2 is the
  /// smallest record, a tagged bool).  A CRC-valid but crafted length
  /// fails fast with a StateError instead of a multi-exabyte allocation.
  std::uint64_t get_count(std::uint64_t min_bytes_per_item = 2);
  std::int64_t get_i64();
  double get_f64();
  std::string get_str();
  std::vector<std::uint8_t> get_blob();

  /// All payload consumed and all sections left.
  bool at_end() const noexcept;

  /// Throw unless at_end() — callers use this to reject trailing garbage.
  void expect_end() const;

 private:
  void validate_header();
  std::uint8_t take_tag(std::uint8_t expected, const char* what);
  const std::uint8_t* take(std::size_t n, const char* what);
  std::uint32_t raw_u32(const char* what);
  std::uint64_t raw_u64(const char* what);
  [[noreturn]] void fail(const std::string& msg) const;

  std::vector<std::uint8_t> owned_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;      ///< payload size (header/CRC stripped)
  std::size_t pos_ = 0;       ///< cursor within the payload
  unsigned depth_ = 0;
};

/// The contract an audited stateful component honours: `save_state` writes
/// every cross-cycle member (and nothing configuration-derived);
/// `restore_state` reads them back in the same order into an instance
/// freshly constructed from the same structural configuration.  The
/// component is responsible for opening a named section so drift is caught
/// by tag, not by corruption downstream.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual void save_state(StateWriter& w) const = 0;
  virtual void restore_state(StateReader& r) = 0;
};

/// Structural guard shared by components with optional sub-state (e.g.
/// protocol checkers): the snapshot and the restore target must agree on
/// whether `what` exists, or the stream cannot line up.  Throws StateError
/// naming the component and both sides.
void expect_presence_match(bool snapshot_has, bool platform_has,
                           std::string_view what);

/// CRC-32 (IEEE, reflected) over a byte range — exposed for tests.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

}  // namespace ahbp::state
