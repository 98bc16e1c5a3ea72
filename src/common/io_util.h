// EINTR-retrying, short-read/short-write-safe I/O helpers.
//
// Long-lived serving exposed every sloppy read/write in the tree: a signal
// mid-`read` returns EINTR, a full socket buffer makes `write` partial, and
// an fread loop that never checks ferror() silently treats an I/O error as
// EOF — which is how a truncated checkpoint or trace fragment passes for a
// complete one. Every file and socket transfer in the library goes through
// these helpers instead: they retry EINTR, loop until the full buffer moved,
// and surface errors as Status with the caller's context string
// ("checkpoint", "serve", ...) prefixed exactly like the messages the call
// sites used to build by hand.
//
// The durable variants (WriteFileDurable + FsyncDir, combined in
// ReplaceFileDurable) carry the checkpoint and catalog contract: data
// fsync'd before rename, directory fsync'd after.

#ifndef DISTINCT_COMMON_IO_UTIL_H_
#define DISTINCT_COMMON_IO_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"

namespace distinct {

/// Whole-file read over a raw descriptor: EINTR-retried, error-checked (a
/// failed read is DataLoss, never a silent truncation). ENOENT is NotFound.
StatusOr<std::string> ReadFileToString(const std::string& path,
                                       const std::string& context = "io");

/// Whole-file overwrite: open(O_TRUNC) + full-write loop + close check. No
/// fsync — for reports and other artifacts a crash may lose.
Status WriteStringToFile(const std::string& path, std::string_view data,
                         const std::string& context = "io");

/// Crash-durable overwrite: like WriteStringToFile plus fsync before close.
/// Callers that need atomic replacement write to a tmp path, then rename,
/// then FsyncDir the parent.
Status WriteFileDurable(const std::string& path, std::string_view data,
                        const std::string& context = "io");

/// fsyncs a directory so a prior rename/create in it survives a crash.
Status FsyncDir(const std::string& dir, const std::string& context = "io");

/// Atomic, crash-durable replacement of `path` by `data`: WriteFileDurable
/// to `path + ".tmp"`, rename onto `path`, FsyncDir of its directory. A
/// reader sees the old bytes or the new, never a mix. A failed rename is
/// DataLoss. A failed write or rename removes the tmp file.
Status ReplaceFileDurable(const std::string& path, std::string_view data,
                          const std::string& context = "io");

/// Writes all of `data` to `fd` (file or socket): EINTR-retried,
/// short-write-resumed. EPIPE/ECONNRESET come back as Unavailable so a
/// server can treat a vanished client as routine.
Status WriteFdAll(int fd, std::string_view data,
                  const std::string& context = "io");

/// One EINTR-retried read of at most `capacity` bytes into `buffer`.
/// Returns the byte count (0 only at end of stream — a short read is
/// returned as-is, never mistaken for EOF); a failed read is DataLoss with
/// the caller's context. The chunked-consumption primitive for streaming
/// readers that must never materialise the file (XML ingest).
StatusOr<size_t> ReadFdSome(int fd, char* buffer, size_t capacity,
                            const std::string& context = "io");

/// Installs SIG_IGN for SIGPIPE once per process (idempotent). A server
/// writing to a client that already closed must get EPIPE from write(),
/// not a process-killing signal.
void IgnoreSigPipe();

/// Buffered '\n'-delimited line reader over a descriptor the reader does
/// NOT own. EINTR-retried; a line longer than `max_line_bytes` is an
/// OutOfRange error (the transport's oversized-request guard).
class FdLineReader {
 public:
  FdLineReader(int fd, size_t max_line_bytes,
               std::string context = "io");

  /// Reads the next line into `*line` (terminator stripped). Sets `*eof`
  /// and returns OK at end of stream (a final unterminated line is
  /// returned first, with eof on the following call). Non-OK on I/O error
  /// or an oversized line; the reader is then unusable.
  Status ReadLine(std::string* line, bool* eof);

 private:
  int fd_;
  size_t max_line_bytes_;
  std::string context_;
  std::string buffer_;   // bytes received but not yet returned
  size_t scanned_ = 0;   // prefix of buffer_ already searched for '\n'
  bool saw_eof_ = false;
};

}  // namespace distinct

#endif  // DISTINCT_COMMON_IO_UTIL_H_
