#include "lexer.hpp"

#include <cctype>
#include <limits>
#include <stdexcept>

#include "ast.hpp"

namespace qsyn::verilog
{

namespace
{

[[noreturn]] void fail( unsigned line, const std::string& message )
{
  throw std::runtime_error( "verilog lexer, line " + std::to_string( line ) + ": " + message );
}

/// Converts a parsed numeric payload (base + digit string) into LSB-first
/// bits.  `width` == 0 means unsized.
std::vector<bool> digits_to_bits( unsigned line, char base, const std::string& digits, unsigned width )
{
  std::vector<bool> bits;
  if ( base == 'b' )
  {
    for ( auto it = digits.rbegin(); it != digits.rend(); ++it )
    {
      if ( *it != '0' && *it != '1' )
      {
        fail( line, "invalid binary digit" );
      }
      bits.push_back( *it == '1' );
    }
  }
  else if ( base == 'h' )
  {
    for ( auto it = digits.rbegin(); it != digits.rend(); ++it )
    {
      const char c = static_cast<char>( std::tolower( *it ) );
      unsigned v;
      if ( c >= '0' && c <= '9' )
      {
        v = static_cast<unsigned>( c - '0' );
      }
      else if ( c >= 'a' && c <= 'f' )
      {
        v = static_cast<unsigned>( c - 'a' ) + 10u;
      }
      else
      {
        fail( line, "invalid hex digit" );
      }
      for ( unsigned b = 0; b < 4; ++b )
      {
        bits.push_back( ( v >> b ) & 1u );
      }
    }
  }
  else // decimal
  {
    std::uint64_t value = 0;
    for ( const char c : digits )
    {
      if ( !std::isdigit( static_cast<unsigned char>( c ) ) )
      {
        fail( line, "invalid decimal digit" );
      }
      const auto digit = static_cast<std::uint64_t>( c - '0' );
      if ( value > ( std::numeric_limits<std::uint64_t>::max() - digit ) / 10u )
      {
        fail( line, "decimal literal exceeds 64 bits; use binary or hex" );
      }
      value = value * 10u + digit;
    }
    for ( unsigned b = 0; b < 64; ++b )
    {
      bits.push_back( ( value >> b ) & 1u );
    }
  }
  // Normalize to the declared width (zero-extend or truncate), or strip
  // leading zeros for unsized literals (minimum one bit).
  if ( width > 0 )
  {
    bits.resize( width, false );
  }
  else
  {
    while ( bits.size() > 1u && !bits.back() )
    {
      bits.pop_back();
    }
    if ( bits.size() > max_width )
    {
      fail( line, over_width_limit( "literal of " + std::to_string( bits.size() ) + " bits" ) );
    }
  }
  return bits;
}

} // namespace

std::vector<token> tokenize( const std::string& source )
{
  std::vector<token> tokens;
  unsigned line = 1;
  std::size_t i = 0;
  const auto n = source.size();

  const auto peek = [&]( std::size_t offset = 0 ) -> char {
    return i + offset < n ? source[i + offset] : '\0';
  };

  while ( i < n )
  {
    const char c = source[i];
    if ( c == '\n' )
    {
      ++line;
      ++i;
      continue;
    }
    if ( std::isspace( static_cast<unsigned char>( c ) ) )
    {
      ++i;
      continue;
    }
    if ( c == '/' && peek( 1 ) == '/' )
    {
      while ( i < n && source[i] != '\n' )
      {
        ++i;
      }
      continue;
    }
    if ( c == '/' && peek( 1 ) == '*' )
    {
      i += 2;
      while ( i + 1u < n && !( source[i] == '*' && source[i + 1u] == '/' ) )
      {
        if ( source[i] == '\n' )
        {
          ++line;
        }
        ++i;
      }
      if ( i + 1u >= n )
      {
        fail( line, "unterminated block comment" );
      }
      i += 2;
      continue;
    }
    if ( std::isalpha( static_cast<unsigned char>( c ) ) || c == '_' )
    {
      std::size_t start = i;
      while ( i < n && ( std::isalnum( static_cast<unsigned char>( source[i] ) ) || source[i] == '_' ) )
      {
        ++i;
      }
      const std::string word = source.substr( start, i - start );
      token t;
      t.line = line;
      t.text = word;
      if ( word == "module" )
      {
        t.kind = token_kind::keyword_module;
      }
      else if ( word == "endmodule" )
      {
        t.kind = token_kind::keyword_endmodule;
      }
      else if ( word == "input" )
      {
        t.kind = token_kind::keyword_input;
      }
      else if ( word == "output" )
      {
        t.kind = token_kind::keyword_output;
      }
      else if ( word == "wire" )
      {
        t.kind = token_kind::keyword_wire;
      }
      else if ( word == "assign" )
      {
        t.kind = token_kind::keyword_assign;
      }
      else
      {
        t.kind = token_kind::identifier;
      }
      tokens.push_back( std::move( t ) );
      continue;
    }
    if ( std::isdigit( static_cast<unsigned char>( c ) ) || c == '\'' )
    {
      // Number: [size]'[base]digits or plain decimal.
      std::string size_digits;
      while ( i < n && std::isdigit( static_cast<unsigned char>( source[i] ) ) )
      {
        size_digits += source[i++];
      }
      token t;
      t.line = line;
      t.kind = token_kind::number;
      if ( i < n && source[i] == '\'' )
      {
        ++i;
        const char base_char = static_cast<char>( std::tolower( peek() ) );
        if ( base_char != 'b' && base_char != 'h' && base_char != 'd' )
        {
          fail( line, "unsupported number base (use b, h, or d)" );
        }
        ++i;
        std::string digits;
        while ( i < n && ( std::isalnum( static_cast<unsigned char>( source[i] ) ) || source[i] == '_' ) )
        {
          if ( source[i] != '_' )
          {
            digits += source[i];
          }
          ++i;
        }
        if ( digits.empty() )
        {
          fail( line, "number literal has no digits" );
        }
        unsigned width = 0;
        if ( !size_digits.empty() )
        {
          // Digit by digit, so a size of any length fails cleanly instead of
          // overflowing.
          std::uint64_t size = 0;
          for ( const char d : size_digits )
          {
            size = size * 10u + static_cast<std::uint64_t>( d - '0' );
            if ( size > max_width )
            {
              fail( line, over_width_limit( "literal size " + size_digits ) );
            }
          }
          if ( size == 0 )
          {
            fail( line, "zero-width literal" );
          }
          width = static_cast<unsigned>( size );
          t.sized = true;
        }
        t.bits = digits_to_bits( line, base_char, digits, width );
      }
      else
      {
        if ( size_digits.empty() )
        {
          fail( line, "malformed number" );
        }
        t.bits = digits_to_bits( line, 'd', size_digits, 0 );
        t.sized = false;
      }
      tokens.push_back( std::move( t ) );
      continue;
    }
    // Punctuation and operators.
    token t;
    t.line = line;
    switch ( c )
    {
    case '(': t.kind = token_kind::lparen; ++i; break;
    case ')': t.kind = token_kind::rparen; ++i; break;
    case '[': t.kind = token_kind::lbracket; ++i; break;
    case ']': t.kind = token_kind::rbracket; ++i; break;
    case '{': t.kind = token_kind::lbrace; ++i; break;
    case '}': t.kind = token_kind::rbrace; ++i; break;
    case ',': t.kind = token_kind::comma; ++i; break;
    case ';': t.kind = token_kind::semicolon; ++i; break;
    case ':': t.kind = token_kind::colon; ++i; break;
    case '?': t.kind = token_kind::question; ++i; break;
    case '+': t.kind = token_kind::plus; ++i; break;
    case '-': t.kind = token_kind::minus; ++i; break;
    case '*': t.kind = token_kind::star; ++i; break;
    case '/': t.kind = token_kind::slash; ++i; break;
    case '%': t.kind = token_kind::percent; ++i; break;
    case '~': t.kind = token_kind::tilde; ++i; break;
    case '^': t.kind = token_kind::caret; ++i; break;
    case '<':
      if ( peek( 1 ) == '<' )
      {
        t.kind = token_kind::shift_left;
        i += 2;
      }
      else if ( peek( 1 ) == '=' )
      {
        t.kind = token_kind::less_equal;
        i += 2;
      }
      else
      {
        t.kind = token_kind::less;
        ++i;
      }
      break;
    case '>':
      if ( peek( 1 ) == '>' )
      {
        t.kind = token_kind::shift_right;
        i += 2;
      }
      else if ( peek( 1 ) == '=' )
      {
        t.kind = token_kind::greater_equal;
        i += 2;
      }
      else
      {
        t.kind = token_kind::greater;
        ++i;
      }
      break;
    case '=':
      if ( peek( 1 ) == '=' )
      {
        t.kind = token_kind::equal_equal;
        i += 2;
      }
      else
      {
        t.kind = token_kind::assign_op;
        ++i;
      }
      break;
    case '!':
      if ( peek( 1 ) == '=' )
      {
        t.kind = token_kind::not_equal;
        i += 2;
      }
      else
      {
        t.kind = token_kind::bang;
        ++i;
      }
      break;
    case '&':
      if ( peek( 1 ) == '&' )
      {
        t.kind = token_kind::amp_amp;
        i += 2;
      }
      else
      {
        t.kind = token_kind::amp;
        ++i;
      }
      break;
    case '|':
      if ( peek( 1 ) == '|' )
      {
        t.kind = token_kind::pipe_pipe;
        i += 2;
      }
      else
      {
        t.kind = token_kind::pipe;
        ++i;
      }
      break;
    default:
      fail( line, std::string( "unexpected character '" ) + c + "'" );
    }
    tokens.push_back( t );
  }
  token eof;
  eof.kind = token_kind::end_of_file;
  eof.line = line;
  tokens.push_back( eof );
  return tokens;
}

} // namespace qsyn::verilog
