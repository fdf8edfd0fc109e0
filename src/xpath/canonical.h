#ifndef XEE_XPATH_CANONICAL_H_
#define XEE_XPATH_CANONICAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "xpath/query.h"

namespace xee::xpath {

/// Removes whitespace outside double-quoted value strings, so
/// `" //a / b "` keys the same as `"//a/b"`. Understands the backslash
/// escapes of value literals, so an escaped quote does not end the
/// quoted region. The grammar of ParseXPath is whitespace-free outside
/// literals; callers strip before parsing.
std::string StripWhitespace(std::string_view xpath);
/// StripWhitespace appending to `*out`, so a caller can reuse one
/// buffer across requests.
void AppendStripped(std::string_view xpath, std::string* out);

/// Escapes a value-predicate literal for embedding between double
/// quotes: '\' becomes "\\" and '"' becomes "\"". This is the inverse
/// of the unescaping done by ParseXPath's value lexer, and it makes
/// SerializeKey injective — without it, content could shift between two
/// adjacent quoted literals and distinct queries would share a key.
std::string EscapeValueFilter(std::string_view value);

/// Rewrites `q` into a canonical form preserving its semantics:
/// the children of every node are sorted by a structural subtree
/// signature (predicate order is semantically irrelevant in the tree
/// pattern — order between branches is expressed only by explicit
/// OrderConstraints, which are remapped), nodes are renumbered in
/// preorder of the sorted tree, and the constraint list is sorted. The
/// signatures are compared, never built (see canonical.cc).
/// Semantically identical queries — however they were entered
/// (redundant `child::`, permuted predicates, `{t}` on the default
/// target) — canonicalize to equal queries. Idempotent.
Query Canonicalize(const Query& q);
/// Canonicalize consuming `q`: its nodes move to their canonical places
/// instead of being copied.
Query Canonicalize(Query&& q);

/// Serializes a query into an unambiguous key string. Equal queries
/// produce equal keys and distinct queries distinct keys; to make
/// semantically equal queries collide on purpose, canonicalize first
/// (CanonicalKey does both).
std::string SerializeKey(const Query& q);
/// SerializeKey appending to `*out`, so a caller can reuse one buffer
/// across requests.
void AppendSerializedKey(const Query& q, std::string* out);

/// SerializeKey(Canonicalize(q)): the cache key under which all
/// spellings of a query meet.
std::string CanonicalKey(const Query& q);

/// 64-bit FNV-1a — a stable, platform-independent hash for sharding
/// and fingerprinting canonical keys.
uint64_t StableHash64(std::string_view s);

/// StableHash64 over CanonicalKey(q).
uint64_t CanonicalHash(const Query& q);

}  // namespace xee::xpath

#endif  // XEE_XPATH_CANONICAL_H_
