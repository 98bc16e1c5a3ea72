#include "common/io_util.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace distinct {
namespace {

std::string TempPath(const char* name) {
  const char* dir = ::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/distinct_io_" +
         name + "_" + std::to_string(::getpid());
}

bool Exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

TEST(FileIoTest, WriteThenReadRoundTrips) {
  const std::string path = TempPath("roundtrip");
  const std::string payload("line one\nline two\0embedded nul", 30);
  ASSERT_TRUE(WriteStringToFile(path, payload, "test").ok());
  auto read = ReadFileToString(path, "test");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsNotFound) {
  auto read = ReadFileToString(TempPath("never_written"), "test");
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  // The context string survives into the message for actionable errors.
  EXPECT_NE(read.status().message().find("test"), std::string::npos);
}

TEST(FileIoTest, DurableWriteProducesSameBytes) {
  const std::string path = TempPath("durable");
  ASSERT_TRUE(WriteFileDurable(path, "checkpoint", "test").ok());
  auto read = ReadFileToString(path, "test");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "checkpoint");
  std::remove(path.c_str());
}

TEST(FileIoTest, ReplaceLeavesNewBytesAndNoTmp) {
  const std::string path = TempPath("replace");
  ASSERT_TRUE(WriteStringToFile(path, "old bytes, longer", "test").ok());
  ASSERT_TRUE(ReplaceFileDurable(path, "new", "test").ok());
  auto read = ReadFileToString(path, "test");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "new");
  EXPECT_FALSE(Exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FileIoTest, ReplaceIntoMissingDirectoryFailsAndLeavesNoFile) {
  const std::string path = TempPath("no_such_dir") + "/file";
  const Status status = ReplaceFileDurable(path, "data", "test");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("test"), std::string::npos);
  EXPECT_FALSE(Exists(path));
  EXPECT_FALSE(Exists(path + ".tmp"));
}

TEST(FileIoTest, FailedRenameIsDataLossAndRemovesTmp) {
  // A directory in the target's place makes the rename itself fail.
  const std::string path = TempPath("rename_target");
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  const Status status = ReplaceFileDurable(path, "data", "test");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(Exists(path + ".tmp"));
  ::rmdir(path.c_str());
}

TEST(FdLineReaderTest, SplitsLinesAcrossPipeWrites) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Two writes that do not align with line boundaries.
  ASSERT_TRUE(WriteFdAll(fds[1], "alpha\nbe", "test").ok());
  ASSERT_TRUE(WriteFdAll(fds[1], "ta\ngamma", "test").ok());
  ::close(fds[1]);

  FdLineReader reader(fds[0], 1 << 10, "test");
  std::string line;
  bool eof = false;
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_EQ(line, "beta");
  // Final line is unterminated: still delivered, then EOF.
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_FALSE(eof);
  EXPECT_EQ(line, "gamma");
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_TRUE(eof);
  ::close(fds[0]);
}

TEST(FdLineReaderTest, EmptyLinesAreDelivered) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFdAll(fds[1], "\n\nx\n", "test").ok());
  ::close(fds[1]);
  FdLineReader reader(fds[0], 64, "test");
  std::string line;
  bool eof = false;
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_EQ(line, "");
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_EQ(line, "");
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_EQ(line, "x");
  ASSERT_TRUE(reader.ReadLine(&line, &eof).ok());
  EXPECT_TRUE(eof);
  ::close(fds[0]);
}

TEST(FdLineReaderTest, OversizedLineIsOutOfRange) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string flood(128, 'x');  // no newline, beyond the 64-byte cap
  ASSERT_TRUE(WriteFdAll(fds[1], flood, "test").ok());
  ::close(fds[1]);
  FdLineReader reader(fds[0], 64, "test");
  std::string line;
  bool eof = false;
  const Status status = reader.ReadLine(&line, &eof);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  ::close(fds[0]);
}

TEST(FdLineReaderTest, OversizedTerminatedLineAlsoRejected) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string flood = std::string(128, 'x') + "\n";
  ASSERT_TRUE(WriteFdAll(fds[1], flood, "test").ok());
  ::close(fds[1]);
  FdLineReader reader(fds[0], 64, "test");
  std::string line;
  bool eof = false;
  EXPECT_EQ(reader.ReadLine(&line, &eof).code(), StatusCode::kOutOfRange);
  ::close(fds[0]);
}

TEST(WriteFdAllTest, ClosedPipeIsUnavailableNotACrash) {
  IgnoreSigPipe();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  const Status status =
      WriteFdAll(fds[1], "nobody is listening", "test");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  ::close(fds[1]);
}

}  // namespace
}  // namespace distinct
