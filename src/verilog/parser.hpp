/// \file parser.hpp
/// \brief Recursive-descent parser for the Verilog subset.

#pragma once

#include <string>

#include "ast.hpp"

namespace qsyn::verilog
{

/// Parses a single module from Verilog source.  Throws std::runtime_error
/// on syntax errors; the message carries `source_name`, the 1-based line,
/// and the offending token ("demo.v:3: verilog parser: unexpected token
/// near 'endmodule'"), so a malformed design degrades to a useful
/// per-design failure record instead of an opaque abort.  Expressions
/// nested deeper than 256 levels (parentheses, unary operators, ternary
/// branches, concatenations, selects) are such an error too.
module_def parse_module( const std::string& source,
                         const std::string& source_name = "<verilog>" );

} // namespace qsyn::verilog
