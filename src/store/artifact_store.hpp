/// \file artifact_store.hpp
/// \brief Persistent content-addressed artifact store (disk tier).
///
/// The store maps `(design content hash, payload kind, parameter key)` to a
/// binary payload (see serialize.hpp) in a directory tree:
///
///   <root>/<design-hash hex>/<kind>-<sanitized param key>-<key hash>.qsa
///
/// The design hash is `aig_network::content_hash()` of the *input* design
/// AIG, and the parameter key is the exact string `flow_artifact_cache`
/// keys the stage on (e.g. "optimize[r=2]", "esop[r=2,exo=1]",
/// "xmg[r=2,k=4]") — so the disk tier shares artifacts on precisely the
/// same identity the memory tier does, just across processes.
///
/// Guarantees:
///  * **Atomic writes.**  An entry is assembled in a process-unique temp
///    file in the same directory and `rename(2)`d into place, so readers
///    (including concurrent processes) only ever observe absent or
///    complete entries.  Concurrent writers of one key race benignly —
///    last rename wins and every candidate is a valid entry for that key.
///  * **Corruption tolerance.**  Every load re-validates the versioned
///    header (magic, format version, kind, design hash, parameter key)
///    and a payload checksum; truncated, corrupted, mis-versioned, or
///    mis-keyed entries are counted and reported as a miss — never thrown
///    past the store, never a crash.
///  * **Thread safety.**  All methods are safe to call concurrently; the
///    filesystem provides write atomicity, a mutex guards the counters.

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace qsyn::store
{

/// What a store entry holds (written into the entry header; a kind
/// mismatch on load is corruption).
enum class payload_kind : std::uint32_t
{
  aig = 1,          ///< optimized AIG (serialize.hpp write_aig)
  esop = 2,         ///< producing budget + budget flag + minimized ESOP cube list
  xmg = 3,          ///< resynthesized XMG
  circuit = 4,      ///< synthesized reversible circuit
  flow_outcome = 5, ///< producing budget + full flow result incl. verification verdict (daemon)
};

/// Identity of one store entry.
struct store_key
{
  std::uint64_t design_hash = 0; ///< aig_network::content_hash() of the design
  payload_kind kind = payload_kind::aig;
  std::string param_key;         ///< stage parameter subset, e.g. "esop[r=2,exo=1]"
};

/// Hit/miss/write counters (one "load" = one hit or one miss; a corrupt
/// entry counts as both a miss and a corrupt_entry).
struct store_stats
{
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t writes = 0;
  std::size_t write_failures = 0;
  std::size_t corrupt_entries = 0;
};

class artifact_store
{
public:
  /// On-disk entry format version; bump when the header or any payload
  /// layout changes, or the algorithm that produced a stored artifact
  /// changes (a stored optimized AIG, LUT network, XMG or circuit must be
  /// what a cold run would compute).  Entries with a different version
  /// load as a miss.
  static constexpr std::uint32_t format_version = 4;

  /// Opens (and creates, if needed) a store rooted at `root_dir`.  Throws
  /// std::runtime_error when the root cannot be created — a store that
  /// silently drops every write would masquerade as an empty cache.
  explicit artifact_store( std::string root_dir );

  artifact_store( const artifact_store& ) = delete;
  artifact_store& operator=( const artifact_store& ) = delete;

  [[nodiscard]] const std::string& root() const { return root_; }

  /// Writes `payload` under `key` (atomic temp-file + rename).  I/O
  /// failures are absorbed into `write_failures` (a broken disk degrades
  /// the store to a smaller cache, it does not take synthesis down);
  /// returns false on failure.
  bool save( const store_key& key, const std::vector<std::uint8_t>& payload );

  /// Loads the payload stored under `key`; nullopt on absence or on any
  /// validation failure (see corruption tolerance above).
  std::optional<std::vector<std::uint8_t>> load( const store_key& key );

  /// Full path of `key`'s entry (exposed so tests can corrupt/truncate
  /// entries deliberately).
  [[nodiscard]] std::string entry_path( const store_key& key ) const;

  [[nodiscard]] store_stats stats() const;

private:
  std::string root_;
  mutable std::mutex mutex_; ///< guards stats_
  store_stats stats_;
};

} // namespace qsyn::store
