#include "util/fsio.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#ifdef DNNLIFE_HAVE_FSYNC
#include <fcntl.h>
#include <unistd.h>
#endif

namespace dnnlife::util {

void fsync_stream(std::FILE* file) noexcept {
#ifdef DNNLIFE_HAVE_FSYNC
  if (file != nullptr) ::fsync(::fileno(file));
#else
  (void)file;
#endif
}

void fsync_parent_directory(const std::string& path) noexcept {
#ifdef DNNLIFE_HAVE_FSYNC
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
#ifdef O_DIRECTORY
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
#else
  const int fd = ::open(parent.c_str(), O_RDONLY);
#endif
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

void write_file_durable(const std::string& tmp_path,
                        const std::string& final_path,
                        std::string_view contents) {
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr)
    throw std::runtime_error("cannot open '" + tmp_path +
                             "' for writing: " + std::strerror(errno));
  const bool wrote =
      std::fwrite(contents.data(), 1, contents.size(), file) ==
          contents.size() &&
      std::fflush(file) == 0;
  if (!wrote) {
    const int saved_errno = errno;
    std::fclose(file);
    std::error_code ignored;
    std::filesystem::remove(tmp_path, ignored);
    throw std::runtime_error("write to '" + tmp_path +
                             "' failed: " + std::strerror(saved_errno));
  }
  fsync_stream(file);
  if (std::fclose(file) != 0) {
    std::error_code ignored;
    std::filesystem::remove(tmp_path, ignored);
    throw std::runtime_error("closing '" + tmp_path +
                             "' failed: " + std::strerror(errno));
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp_path, ignored);
    throw std::runtime_error("rename '" + tmp_path + "' -> '" + final_path +
                             "' failed: " + ec.message());
  }
  fsync_parent_directory(final_path);
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::invalid_argument("cannot open '" + path + "'");
  // Size the buffer once from the file's current size, plus one byte so a
  // file that did not grow hits EOF inside the first read. The size is
  // only a hint (none for a directory or a special file): reading goes
  // on to EOF, doubling the buffer, so a file that grew is read in full.
  std::error_code no_size;
  const std::uintmax_t hint = std::filesystem::file_size(path, no_size);
  std::string contents(no_size ? std::size_t{1 << 16}
                               : static_cast<std::size_t>(hint) + 1,
                       '\0');
  std::size_t filled = 0;
  for (;;) {
    file.read(contents.data() + filled,
              static_cast<std::streamsize>(contents.size() - filled));
    filled += static_cast<std::size_t>(file.gcount());
    if (!file) break;
    contents.resize(std::max<std::size_t>(2 * contents.size(), 1 << 16));
  }
  contents.resize(filled);
  // eof alone is the normal exit; badbit means the read itself failed.
  if (file.bad())
    throw std::invalid_argument("error while reading '" + path +
                                "': stream failed mid-read");
  return contents;
}

}  // namespace dnnlife::util
