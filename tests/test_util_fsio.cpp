// util::read_file, the one whole-file read behind suites, journals, the
// simulation store and the runners: byte-exact contents whatever the
// size, draining to EOF when the file's size is unknown up front, and an
// error — never a truncated document — when the file cannot be read.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/fsio.hpp"

#if __has_include(<sys/stat.h>)
#include <sys/stat.h>

#include <csignal>
#define DNNLIFE_TEST_HAVE_MKFIFO 1
#endif

namespace dnnlife::util {
namespace {

namespace fs = std::filesystem;

class ReadFileFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("dnnlife_read_file_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  std::string write(const std::string& name, const std::string& bytes) const {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  fs::path dir_;
};

/// `size` bytes covering every byte value, in a period that is not a
/// divisor of any read chunk.
std::string patterned_bytes(std::size_t size) {
  std::string bytes(size, '\0');
  for (std::size_t i = 0; i < size; ++i)
    bytes[i] = static_cast<char>((i * 131 + i / 251) & 0xff);
  return bytes;
}

std::string error_of(const std::string& path) {
  try {
    read_file(path);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST_F(ReadFileFixture, EmptyFileReadsAsEmptyString) {
  EXPECT_EQ(read_file(write("empty", "")), "");
}

TEST_F(ReadFileFixture, MultiChunkFileRoundTripsByteExact) {
  const std::string bytes = patterned_bytes(3 * 65536 + 7);
  EXPECT_EQ(read_file(write("big", bytes)), bytes);
  EXPECT_EQ(read_file(write("one", "x")), "x");
}

TEST_F(ReadFileFixture, MissingPathThrowsCannotOpen) {
  EXPECT_NE(error_of((dir_ / "absent").string()).find("cannot open"),
            std::string::npos);
}

TEST_F(ReadFileFixture, DirectoryThrowsStreamFailedMidRead) {
  EXPECT_NE(error_of(dir_.string()).find("stream failed mid-read"),
            std::string::npos);
}

#ifdef DNNLIFE_TEST_HAVE_MKFIFO
TEST_F(ReadFileFixture, FileWithoutAKnownSizeIsDrainedToEof) {
  // A pipe reports no size up front, so the whole read runs on the
  // grow-and-drain path; it must still return every byte written.
  const std::string path = (dir_ / "pipe").string();
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::string bytes = patterned_bytes(5 * 65536 + 3);
  // A short read closes the pipe under the writer: fail, do not die.
  const auto previous_handler = std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
  const std::string read = read_file(path);
  writer.join();
  std::signal(SIGPIPE, previous_handler);
  EXPECT_EQ(read, bytes);
}
#endif

}  // namespace
}  // namespace dnnlife::util
