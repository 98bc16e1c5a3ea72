#include "common/io_util.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

namespace distinct {

namespace {

std::string Errno(const std::string& context, const std::string& what,
                  const std::string& target) {
  return context + ": " + what + " '" + target +
         "': " + std::strerror(errno);
}

}  // namespace

StatusOr<std::string> ReadFileToString(const std::string& path,
                                       const std::string& context) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return NotFoundError(context + ": no file '" + path + "'");
    }
    return InternalError(Errno(context, "cannot open", path));
  }
  std::string data;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status error =
          DataLossError(Errno(context, "read of", path) );
      ::close(fd);
      return error;
    }
    if (n == 0) {
      break;
    }
    data.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

namespace {

Status WriteOpenFd(int fd, std::string_view data, const std::string& path,
                   const std::string& context, bool durable) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status error = DataLossError(Errno(context, "write to", path));
      ::close(fd);
      return error;
    }
    written += static_cast<size_t>(n);
  }
  if (durable && ::fsync(fd) != 0) {
    const Status error = DataLossError(Errno(context, "fsync of", path));
    ::close(fd);
    return error;
  }
  if (::close(fd) != 0) {
    return DataLossError(Errno(context, "close of", path));
  }
  return Status::Ok();
}

Status WriteFileImpl(const std::string& path, std::string_view data,
                     const std::string& context, bool durable) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return InternalError(Errno(context, "cannot open", path));
  }
  return WriteOpenFd(fd, data, path, context, durable);
}

}  // namespace

Status WriteStringToFile(const std::string& path, std::string_view data,
                         const std::string& context) {
  return WriteFileImpl(path, data, context, /*durable=*/false);
}

Status WriteFileDurable(const std::string& path, std::string_view data,
                        const std::string& context) {
  return WriteFileImpl(path, data, context, /*durable=*/true);
}

Status FsyncDir(const std::string& dir, const std::string& context) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return InternalError(Errno(context, "cannot open directory", dir));
  }
  const bool ok = ::fsync(fd) == 0;
  const Status error =
      ok ? Status::Ok()
         : DataLossError(Errno(context, "fsync of directory", dir));
  ::close(fd);
  return error;
}

Status ReplaceFileDurable(const std::string& path, std::string_view data,
                          const std::string& context) {
  const std::string tmp = path + ".tmp";
  Status status = WriteFileDurable(tmp, data, context);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = DataLossError(context + ": rename of '" + tmp + "' onto '" +
                           path + "' failed: " + std::strerror(errno));
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  const size_t slash = path.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash == 0 ? 1 : slash);
  return FsyncDir(dir, context);
}

Status WriteFdAll(int fd, std::string_view data,
                  const std::string& context) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status(StatusCode::kUnavailable,
                      context + ": peer closed the connection");
      }
      return DataLossError(context + ": write failed: " +
                           std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<size_t> ReadFdSome(int fd, char* buffer, size_t capacity,
                            const std::string& context) {
  for (;;) {
    const ssize_t n = ::read(fd, buffer, capacity);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return DataLossError(context + ": read failed: " +
                           std::strerror(errno));
    }
    return static_cast<size_t>(n);
  }
}

void IgnoreSigPipe() {
  static std::once_flag once;
  std::call_once(once, [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &action, nullptr);
  });
}

FdLineReader::FdLineReader(int fd, size_t max_line_bytes,
                           std::string context)
    : fd_(fd),
      max_line_bytes_(max_line_bytes),
      context_(std::move(context)) {}

Status FdLineReader::ReadLine(std::string* line, bool* eof) {
  line->clear();
  *eof = false;
  for (;;) {
    const size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      if (newline > max_line_bytes_) {
        return OutOfRangeError(
            context_ + ": line exceeds " +
            std::to_string(max_line_bytes_) + " bytes");
      }
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return Status::Ok();
    }
    scanned_ = buffer_.size();
    if (saw_eof_) {
      if (buffer_.empty()) {
        *eof = true;
        return Status::Ok();
      }
      // Final unterminated line; next call reports EOF.
      line->swap(buffer_);
      scanned_ = 0;
      return Status::Ok();
    }
    if (buffer_.size() > max_line_bytes_) {
      return OutOfRangeError(context_ + ": line exceeds " +
                             std::to_string(max_line_bytes_) + " bytes");
    }
    char chunk[1 << 14];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == ECONNRESET) {
        saw_eof_ = true;
        continue;  // treat a reset like EOF: drain what we have
      }
      return DataLossError(context_ + ": read failed: " +
                           std::strerror(errno));
    }
    if (n == 0) {
      saw_eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace distinct
