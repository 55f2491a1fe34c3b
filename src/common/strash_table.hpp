/// \file strash_table.hpp
/// \brief Flat open-addressing table for structural hashing.
///
/// One structure serves the strash tables of `aig_network`,
/// `xmg_network` and `sat::incremental_cec`: it maps a fixed-width key of
/// `KeyWords` 64-bit words (a packed fanin tuple) to a 32-bit node id.
/// Slots live in one power-of-two array probed linearly; the table doubles
/// before its load factor exceeds 1/2, so a probe sequence is short and a
/// miss ends at the first empty slot.  There is no erase: strash tables
/// only grow with their network.
///
/// `insert` keeps the first value of a key.  `aig_network::append_raw_and`
/// relies on that: a deserialized duplicate fanin pair must leave later
/// `create_and` calls hash-consing to the earlier node.

#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace qsyn
{

template<unsigned KeyWords>
class strash_table
{
  static_assert( KeyWords >= 1u, "strash_table needs a key of at least one word" );

public:
  using key_type = std::array<std::uint64_t, KeyWords>;
  /// Reserved value marking an empty slot; never a valid node id.
  static constexpr std::uint32_t empty = ~std::uint32_t{ 0 };

  /// Value stored under `key`, or nullopt.
  [[nodiscard]] std::optional<std::uint32_t> find( const key_type& key ) const
  {
    if ( slots_.empty() )
    {
      return std::nullopt;
    }
    const auto mask = slots_.size() - 1u;
    for ( auto i = hash( key ) & mask;; i = ( i + 1u ) & mask )
    {
      const auto& s = slots_[i];
      if ( s.value == empty )
      {
        return std::nullopt;
      }
      if ( s.key == key )
      {
        return s.value;
      }
    }
  }

  /// Stores `value` under `key` unless the key is present.  Returns the
  /// value now stored under `key` and whether it was inserted — a present
  /// key keeps its first value.
  std::pair<std::uint32_t, bool> insert( const key_type& key, std::uint32_t value )
  {
    assert( value != empty );
    if ( 2u * ( size_ + 1u ) > slots_.size() )
    {
      grow();
    }
    const auto mask = slots_.size() - 1u;
    for ( auto i = hash( key ) & mask;; i = ( i + 1u ) & mask )
    {
      auto& s = slots_[i];
      if ( s.value == empty )
      {
        s.key = key;
        s.value = value;
        ++size_;
        return { value, true };
      }
      if ( s.key == key )
      {
        return { s.value, false };
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Number of slots (0 before the first insert, else a power of two).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

private:
  struct slot
  {
    key_type key{};
    std::uint32_t value = empty;
  };

  /// Fibonacci multiply per word, high half folded onto the low half:
  /// fanin tuples are small, dense integers, and the fold carries the high
  /// fanin's bits into the low bits the mask keeps.  One multiply per word
  /// measured faster than a full murmur finalizer on AIG fanin streams.
  static std::size_t hash( const key_type& key )
  {
    std::uint64_t h = 0;
    for ( const auto word : key )
    {
      h = ( h ^ word ) * 0x9e3779b97f4a7c15ull;
    }
    return static_cast<std::size_t>( h ^ ( h >> 32 ) );
  }

  void grow()
  {
    std::vector<slot> old( slots_.empty() ? std::size_t{ 16 } : 2u * slots_.size() );
    old.swap( slots_ );
    const auto mask = slots_.size() - 1u;
    for ( const auto& s : old )
    {
      if ( s.value == empty )
      {
        continue;
      }
      auto i = hash( s.key ) & mask;
      while ( slots_[i].value != empty )
      {
        i = ( i + 1u ) & mask;
      }
      slots_[i] = s;
    }
  }

  std::vector<slot> slots_;
  std::size_t size_ = 0;
};

} // namespace qsyn
