// On-disk layout of the columnar DBLP catalog (DESIGN.md §16).
//
// A catalog is a directory holding one committed generation, whose
// unique stamp G (16 hex digits) is in every data file name:
//
//   MANIFEST.json           committed last; names every file of the
//                           generation and marks it complete
//   authors-G.dict          dictionary files: all distinct strings of one
//   venues-G.dict           column, id order = first appearance in the
//   titles-G.dict           record stream, plus a sorted permutation
//   segment-G-000000.bin    append-only column segments of fixed-width ids
//   segment-G-000001.bin    ...
//
// Every binary file is little-endian, begins with (magic, version), and
// ends with a CRC-32C of everything before the trailer. Files are written
// to `<name>.tmp`, fsync'd, renamed into place, and the directory is
// fsync'd — the same protocol core/checkpoint.cc uses. A new generation's
// files carry its own stamp, so writing them never touches a file the
// committed manifest names; renaming the new MANIFEST.json over the old
// one commits the generation in one step, and only then are the files it
// does not name (the previous generation, debris of a failed or killed
// ingest) swept. An ingest that fails or dies at any point before the
// rename leaves the previous generation readable, or no manifest at all
// in a directory that never had one — never a torn catalog. Readers take
// every file name from the manifest.
//
// Dictionary file:
//   u32 magic = kDictMagic        u32 version = kCatalogFormatVersion
//   u64 count
//   u64 offsets[count + 1]        byte offsets into the blob, id order
//   u8  blob[offsets[count]]      concatenated string bytes
//   u8  pad[]                     zeros up to an 8-byte boundary
//   u32 sorted_ids[count]         ids ordered by string ascending
//   u32 crc                       CRC-32C of all preceding bytes
//
// Segment file (fixed-width columns over `num_papers` records carrying
// `num_refs` author references; all ids index the dictionaries above):
//   u32 magic = kSegmentMagic     u32 version = kCatalogFormatVersion
//   u64 paper_base                global id of the first paper
//   u64 num_papers
//   u64 num_refs
//   i64 year[num_papers]          raw record year, -1 when absent
//   u32 title_id[num_papers]
//   u32 venue_id[num_papers]
//   u32 ref_begin[num_papers+1]   per-paper ranges into author_id
//   u32 author_id[num_refs]       in record order
//   u32 crc                       CRC-32C of all preceding bytes
//
// The header block is 32 bytes and every column width divides its offset,
// so a reader can overlay spans on the mapping without copying.

#ifndef DISTINCT_CATALOG_FORMAT_H_
#define DISTINCT_CATALOG_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace distinct {
namespace catalog {

inline constexpr uint32_t kCatalogFormatVersion = 1;
inline constexpr uint32_t kDictMagic = 0x44544344;     // "DCTD"
inline constexpr uint32_t kSegmentMagic = 0x47534344;  // "DCSG"

inline constexpr char kManifestFile[] = "MANIFEST.json";

/// "authors-00f1e2d3c4b5a697.dict" for column "authors" (also "venues",
/// "titles": the manifest's dictionary keys).
std::string DictionaryFileName(std::string_view column, int64_t generation);

/// "segment-00f1e2d3c4b5a697-000042.bin".
std::string SegmentFileName(int64_t generation, int64_t index);

/// The empty-venue replacement. Interned by the catalog writer exactly
/// where dblp/xml_loader.cc would intern it, so the venue dictionary's ids
/// coincide with the in-memory loader's conference surrogate keys — the
/// keystone of the bit-identity contract.
inline constexpr char kUnknownVenue[] = "unknown-venue";

}  // namespace catalog
}  // namespace distinct

#endif  // DISTINCT_CATALOG_FORMAT_H_
