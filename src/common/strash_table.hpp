/// \file strash_table.hpp
/// \brief Flat open-addressing table for structural hashing.
///
/// One structure serves the strash tables of `aig_network`,
/// `xmg_network` and `sat::incremental_cec`: it maps a fixed-width key of
/// `KeyWords` 64-bit words (a packed fanin tuple) to a 32-bit node id.
/// A slot holds only the node id — 4 bytes, whatever the key width.  The
/// key is not stored: the owner passes a `key_of` callable to every call,
/// which rebuilds the key of a stored id from that node's fanins, and a
/// candidate slot is confirmed by comparing the probed key with
/// `key_of( id )`.  Growth rehashes each id from `key_of` too.
///
/// Slots live in one power-of-two array probed linearly; the table doubles
/// before its load factor exceeds 1/2, so a probe sequence is short and a
/// miss ends at the first empty slot.  A network rebuilt from a source of
/// known size `reserve`s its table up front instead of doubling its way
/// there.  There is no erase: strash tables only grow with their network.
///
/// The `key_of` contract: for every id in the table, `key_of( id )` returns
/// the key the id was inserted under, from the first table call after the
/// insert on.  An owner that inserts `nodes.size()` and appends the node
/// right after a successful insert (or appends first) meets it.
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
  template<class KeyOf>
  [[nodiscard]] std::optional<std::uint32_t> find( const key_type& key, const KeyOf& key_of ) const
  {
    if ( slots_.empty() )
    {
      return std::nullopt;
    }
    const auto mask = slots_.size() - 1u;
    for ( auto i = hash( key ) & mask;; i = ( i + 1u ) & mask )
    {
      const auto id = slots_[i];
      if ( id == empty )
      {
        return std::nullopt;
      }
      if ( key_of( id ) == key )
      {
        return id;
      }
    }
  }

  /// Stores `value` under `key` unless the key is present.  Returns the
  /// value now stored under `key` and whether it was inserted — a present
  /// key keeps its first value.
  template<class KeyOf>
  std::pair<std::uint32_t, bool> insert( const key_type& key, std::uint32_t value,
                                         const KeyOf& key_of )
  {
    assert( value != empty );
    if ( 2u * ( size_ + 1u ) > slots_.size() )
    {
      rehash( slots_.empty() ? std::size_t{ 16 } : 2u * slots_.size(), key_of );
    }
    const auto mask = slots_.size() - 1u;
    for ( auto i = hash( key ) & mask;; i = ( i + 1u ) & mask )
    {
      auto& id = slots_[i];
      if ( id == empty )
      {
        id = value;
        ++size_;
        return { value, true };
      }
      if ( key_of( id ) == key )
      {
        return { id, false };
      }
    }
  }

  /// Presizes the table so that `count` keys fit without regrowth.  Never
  /// shrinks; lookups and inserts return the same values either way.
  template<class KeyOf>
  void reserve( std::size_t count, const KeyOf& key_of )
  {
    std::size_t slots = 16;
    while ( slots < 2u * count )
    {
      slots *= 2u;
    }
    if ( slots > slots_.size() )
    {
      rehash( slots, key_of );
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Number of slots (0 before the first insert, else a power of two).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

private:
  /// A slot is a node id, or `empty`.
  using slot = std::uint32_t;
  static_assert( sizeof( slot ) == 4, "a strash slot is one 32-bit node id" );

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

  /// Moves every id into `count` (a power of two) slots, in old-slot
  /// order, each at the hash of its rebuilt key.
  template<class KeyOf>
  void rehash( std::size_t count, const KeyOf& key_of )
  {
    std::vector<slot> old( count, empty );
    old.swap( slots_ );
    const auto mask = slots_.size() - 1u;
    for ( const auto id : old )
    {
      if ( id == empty )
      {
        continue;
      }
      auto i = hash( key_of( id ) ) & mask;
      while ( slots_[i] != empty )
      {
        i = ( i + 1u ) & mask;
      }
      slots_[i] = id;
    }
  }

  std::vector<slot> slots_;
  std::size_t size_ = 0;
};

} // namespace qsyn
