#include "fault/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "fault/injector.h"
#include "fault/log.h"

namespace dbm::fault {

namespace {

/// fsyncs the directory `dir`, making the files created in it and
/// unlinked from it durable.
bool FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

}  // namespace

Result<std::unique_ptr<DurableFile>> DurableFile::Open(const std::string& path,
                                                       std::string_view header,
                                                       Point* point,
                                                       bool truncate) {
  const int fd = ::open(path.c_str(),
                        O_CREAT | O_RDWR | O_CLOEXEC | (truncate ? O_TRUNC : 0),
                        0644);
  if (fd < 0) return Status::Unavailable("cannot open '" + path + "'");
  std::unique_ptr<DurableFile> file(new DurableFile(path, fd, point));
  struct stat st{};
  if (!truncate && ::fstat(fd, &st) != 0) {
    return Status::Unavailable("cannot stat '" + path + "'");
  }
  file->opened_size_ = static_cast<uint64_t>(st.st_size);
  bool lost = file->opened_size_ < header.size();
  if (!lost) {
    std::string on_disk(header.size(), '\0');
    if (!file->Read(0, on_disk.data(), on_disk.size())) {
      return Status::Unavailable("cannot read the header of '" + path + "'");
    }
    lost = std::all_of(on_disk.begin(), on_disk.end(),
                       [](char b) { return b == 0; });
    if (!lost && on_disk != header) {
      return Status::DataLoss("'" + path + "' has a foreign header");
    }
  }
  if (lost) {
    if (::pwrite(fd, header.data(), header.size(), 0) !=
        static_cast<ssize_t>(header.size())) {
      return Status::Unavailable("cannot write the header of '" + path + "'");
    }
    file->opened_size_ = std::max<uint64_t>(file->opened_size_, header.size());
    file->wrote_header_ = true;
  }
  return file;
}

Status DurableFile::Truncate(const std::string& path, uint64_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open '" + path + "'");
  Status status = Status::OK();
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    status = Status::IoError("cannot truncate '" + path + "'");
  } else if (::fsync(fd) != 0) {
    status = Status::IoError("cannot fsync the truncated '" + path + "'");
  }
  ::close(fd);
  return status;
}

DurableFile::~DurableFile() { ::close(fd_); }

Status DurableFile::Kill(Status why) {
  dead_.store(true);
  return why;
}

Status DurableFile::Write(uint64_t offset, std::string_view bytes,
                          SimTime at_us) {
  if (dead()) return Status::Unavailable("'" + path_ + "' is dead");
  if (point_->armed()) {
    const Decision verdict = point_->Decide();
    if (verdict.crash) {
      // Act the crash out: half the bytes on disk, then the file dies —
      // a torn frame or slot that recovery must cut or repair.
      (void)!::pwrite(fd_, bytes.data(), bytes.size() / 2,
                      static_cast<off_t>(offset));
      Record(FaultEventKind::kInjected, point_->name(),
             "crash mid-write: torn write of " + std::to_string(bytes.size()) +
                 " bytes at offset " + std::to_string(offset) + " in " + path_,
             at_us);
      return Kill(Status::Unavailable("'" + path_ +
                                      "' is dead (injected crash mid-write)"));
    }
    if (verdict.error) {
      // Nothing written: the caller may retry, and a log's history stays
      // contiguous.
      return Status::IoError("injected write error at " + point_->name());
    }
  }
  if (::pwrite(fd_, bytes.data(), bytes.size(), static_cast<off_t>(offset)) !=
      static_cast<ssize_t>(bytes.size())) {
    return Kill(Status::Unavailable("short write to '" + path_ + "'"));
  }
  return Status::OK();
}

Status DurableFile::Zero(uint64_t from, uint64_t to) {
  if (dead()) return Status::Unavailable("'" + path_ + "' is dead");
  static const char kZeros[64 << 10] = {};
  while (from < to) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(sizeof(kZeros), to - from));
    if (::pwrite(fd_, kZeros, n, static_cast<off_t>(from)) !=
        static_cast<ssize_t>(n)) {
      return Kill(Status::Unavailable("short write filling '" + path_ + "'"));
    }
    from += n;
  }
  return Status::OK();
}

bool DurableFile::Read(uint64_t offset, void* out, size_t n) const {
  return ::pread(fd_, out, n, static_cast<off_t>(offset)) ==
         static_cast<ssize_t>(n);
}

Status DurableFile::Fsync(std::span<const std::string> dirs) {
  if (dead()) return Status::Unavailable("'" + path_ + "' is dead");
  if (::fsync(fd_) != 0) {
    return Kill(Status::IoError("fsync failed on '" + path_ + "'"));
  }
  // A file's bytes are no use after a power loss if its name is not
  // durable too; the same rule holds for each directory.
  for (const std::string& dir : dirs) {
    if (!FsyncDirectory(dir)) {
      return Kill(Status::IoError("fsync failed on directory '" + dir + "'"));
    }
  }
  return Status::OK();
}

}  // namespace dbm::fault
