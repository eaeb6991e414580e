#include "store.h"

#include <filesystem>

#include "storage/replacement.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dbm;

constexpr size_t kShards = 16;

Result<std::unique_ptr<Store>> Store::Open(Options options) {
  std::error_code ec;
  fs::remove_all(options.dir, ec);
  fs::create_directories(options.dir, ec);
  if (ec) return Status::IoError("cannot create " + options.dir);
  std::unique_ptr<Store> store(new Store(std::move(options)));
  DBM_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileDiskComponent> disk,
                       storage::FileDiskComponent::Open(store->PagePath()));
  store->disk_ = std::move(disk);
  storage::WalOptions wopt;
  wopt.dir = store->WalDir();
  wopt.fsync = kFsyncPolicy;
  DBM_ASSIGN_OR_RETURN(store->wal_, storage::Wal::Open(wopt));
  store->NewBuffer();
  store->buffer_->SetWal(store->wal_.get());
  return store;
}

void Store::NewBuffer() {
  buffer_ = std::make_shared<storage::BufferManager>("buf", options_.frames,
                                                     kShards);
  buffer_->FindPort("disk")->SetTarget(disk_);
  buffer_->FindPort("policy")->SetTarget(
      std::make_shared<storage::LruPolicy>());
}

Result<storage::PagedRelation*> Store::Load(const data::Relation& rel) {
  DBM_ASSIGN_OR_RETURN(std::unique_ptr<storage::PagedRelation> paged,
                       storage::PagedRelation::Load(rel, buffer_.get(),
                                                    disk_.get()));
  relations_.push_back(std::move(paged));
  return relations_.back().get();
}

Status Store::FlushAndCheckpoint() {
  DBM_RETURN_NOT_OK(buffer_->FlushAll());
  return buffer_->CheckpointWal();
}

Result<storage::PagedRelation*> Store::CrashAndRecover(
    const std::string& name, const data::Schema& schema) {
  relations_.clear();
  buffer_.reset();  // dirty frames die with the pool, unflushed
  wal_.reset();
  disk_.reset();
  DBM_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileDiskComponent> disk,
                       storage::FileDiskComponent::Open(PagePath()));
  disk_ = std::move(disk);
  DBM_RETURN_NOT_OK(storage::Recover(disk_.get(), WalDir()).status());
  NewBuffer();
  DBM_ASSIGN_OR_RETURN(std::unique_ptr<storage::PagedRelation> rel,
                       storage::PagedRelation::Recover(name, schema,
                                                       buffer_.get(),
                                                       disk_.get()));
  relations_.push_back(std::move(rel));
  return relations_.back().get();
}

uint64_t Store::BytesOnDisk() const {
  std::error_code ec;
  uint64_t bytes = fs::file_size(PagePath(), ec);
  if (ec) bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(WalDir(), ec)) {
    std::error_code size_ec;
    const uint64_t n = e.file_size(size_ec);
    if (!size_ec) bytes += n;
  }
  return bytes;
}

}  // namespace perfbench
