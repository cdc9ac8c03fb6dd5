#include "vfs/filesystem.hpp"

#include <algorithm>
#include <cassert>

#include "obs/span.hpp"

namespace cryptodrop::vfs {

FileSystem::FileSystem() { dirs_.insert(std::string()); }

FileSystem FileSystem::clone() const {
  FileSystem out;
  out.files_ = files_;  // FileNode copies share the content shared_ptrs
  out.dirs_ = dirs_;
  out.next_file_id_ = next_file_id_;
  return out;
}

ProcessId FileSystem::register_process(std::string name, ProcessId parent) {
  if (parent > processes_.size()) parent = 0;  // unknown parent: detach
  processes_.push_back(ProcessInfo{std::move(name), parent});
  return static_cast<ProcessId>(processes_.size());
}

std::string_view FileSystem::process_name(ProcessId pid) const {
  if (pid == 0 || pid > processes_.size()) return "<unknown>";
  return processes_[pid - 1].name;
}

ProcessId FileSystem::process_parent(ProcessId pid) const {
  if (pid == 0 || pid > processes_.size()) return 0;
  return processes_[pid - 1].parent;
}

ProcessId FileSystem::process_family_root(ProcessId pid) const {
  ProcessId current = pid;
  // Parents always predate children (ids are registration order), so
  // this walk terminates.
  while (true) {
    const ProcessId parent = process_parent(current);
    if (parent == 0 || parent == current) return current;
    current = parent;
  }
}

void FileSystem::attach_filter(Filter* filter) {
  assert(filter != nullptr);
  filters_.push_back(filter);
  filter->on_attach(*this);
}

void FileSystem::detach_filter(Filter* filter) {
  filters_.erase(std::remove(filters_.begin(), filters_.end(), filter),
                 filters_.end());
}

template <typename ApplyFn>
Status FileSystem::run_filtered(OperationEvent& event, ApplyFn&& apply) {
  clock_micros_ += kOpCostMicros;
  event.timestamp = clock_micros_;
  event.process_name = std::string(process_name(event.pid));
  // Root span for the whole operation. Its op index is the virtual-clock
  // tick (strictly increasing per filtered op on this volume), so span
  // identity is deterministic at any job count.
  obs::ScopedSpan op_span(span_tracer_, obs::span_name::kDispatch, event.pid,
                          event.timestamp / kOpCostMicros);
  if (op_span.active()) {
    op_span.arg("op", op_name(event.op));
    op_span.arg("path", event.path);
    if (event.op == OpType::write) {
      op_span.arg("bytes", static_cast<double>(event.data.size()));
    }
  }
  std::size_t ran = 0;
  for (; ran < filters_.size(); ++ran) {
    Status verdict;
    {
      obs::ScopedSpan pre_span(obs::span_name::kFilterPre);
      if (pre_span.active()) {
        pre_span.arg("filter", filters_[ran]->filter_name());
      }
      verdict = filters_[ran]->pre_operation_mut(event);
      if (!verdict.is_ok() && pre_span.active()) {
        pre_span.arg("status", errc_name(verdict.code()));
      }
    }
    if (!verdict.is_ok()) {
      // Filters that already saw the pre callback observe the failure.
      for (std::size_t i = ran + 1; i-- > 0;) {
        obs::ScopedSpan post_span(obs::span_name::kFilterPost);
        if (post_span.active()) {
          post_span.arg("filter", filters_[i]->filter_name());
        }
        filters_[i]->post_operation(event, verdict);
      }
      return verdict;
    }
  }
  Status outcome = apply();
  for (std::size_t i = filters_.size(); i-- > 0;) {
    obs::ScopedSpan post_span(obs::span_name::kFilterPost);
    if (post_span.active()) {
      post_span.arg("filter", filters_[i]->filter_name());
    }
    filters_[i]->post_operation(event, outcome);
  }
  return outcome;
}

Result<std::string> FileSystem::check_path(std::string_view raw) const {
  auto norm = normalize_path(raw);
  if (!norm) {
    return Status(Errc::invalid_argument, "bad path: " + std::string(raw));
  }
  return *std::move(norm);
}

FileSystem::FileNode* FileSystem::find_file(const std::string& path) {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

const FileSystem::FileNode* FileSystem::find_file(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

Status FileSystem::ensure_parents(const std::string& path) {
  const std::string parent = path_parent(path);
  if (dirs_.contains(parent)) return Status::ok();
  if (files_.contains(parent)) {
    return Status(Errc::not_a_directory, parent);
  }
  // Create missing ancestors top-down.
  std::string acc;
  for (const auto comp : path_components(parent)) {
    acc = path_join(acc, std::string(comp));
    if (files_.contains(acc)) return Status(Errc::not_a_directory, acc);
    dirs_.insert(acc);
  }
  return Status::ok();
}

// --------------------------------------------------------------------
// Filtered operations
// --------------------------------------------------------------------

Status FileSystem::mkdir(ProcessId pid, std::string_view raw_path) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();

  OperationEvent event;
  event.op = OpType::mkdir;
  event.pid = pid;
  event.path = path;
  return run_filtered(event, [&]() -> Status {
    if (files_.contains(path)) return Status(Errc::already_exists, path);
    if (dirs_.contains(path)) return Status(Errc::already_exists, path);
    if (Status s = ensure_parents(path_join(path, "x")); !s.is_ok()) return s;
    dirs_.insert(path);
    return Status::ok();
  });
}

Result<Handle> FileSystem::open(ProcessId pid, std::string_view raw_path, unsigned mode) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();

  if ((mode & (kTruncate | kCreate)) != 0) mode |= kWrite;
  if ((mode & (kRead | kWrite)) == 0) {
    return Status(Errc::invalid_argument, "open without read or write");
  }
  if (path.empty() || dirs_.contains(path)) {
    return Status(Errc::is_a_directory, path);
  }

  FileNode* node = find_file(path);
  if (node == nullptr && (mode & kCreate) == 0) {
    return Status(Errc::not_found, path);
  }
  if (node != nullptr && node->read_only && (mode & kWrite) != 0) {
    return Status(Errc::read_only, path);
  }

  OperationEvent event;
  event.op = OpType::open;
  event.pid = pid;
  event.path = path;
  event.file_id = node != nullptr ? node->id : kNoFile;
  event.open_mode = mode;

  Handle handle;
  Status outcome = run_filtered(event, [&]() -> Status {
    FileNode* n = find_file(path);
    if (n == nullptr) {
      if (Status s = ensure_parents(path); !s.is_ok()) return s;
      FileNode fresh;
      fresh.data = std::make_shared<Bytes>();
      fresh.id = next_file_id_++;
      n = &files_.emplace(path, std::move(fresh)).first->second;
    } else if ((mode & kTruncate) != 0) {
      n->data = std::make_shared<Bytes>();
    }
    OpenHandle oh;
    oh.path = path;
    oh.file_id = n->id;
    oh.pid = pid;
    oh.mode = mode;
    handle.id = next_handle_id_++;
    // The event is shared with post callbacks: recorders below see the
    // handle the open produced (pre callbacks ran before it existed).
    event.handle = handle.id;
    handles_.emplace(handle.id, std::move(oh));
    ++counters_.opens;
    return Status::ok();
  });
  if (!outcome.is_ok()) return outcome;
  return handle;
}

Result<Bytes> FileSystem::read(ProcessId pid, Handle h, std::size_t n) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  OpenHandle& oh = it->second;
  if ((oh.mode & kRead) == 0) {
    return Status(Errc::access_denied, "handle not open for read");
  }
  FileNode* node = find_file(oh.path);
  if (node == nullptr) return Status(Errc::not_found, oh.path);

  // Compute the bytes up front so the post event can carry them; the
  // content pointer is stable during the filtered section.
  const Bytes& content = *node->data;
  const std::uint64_t start = std::min<std::uint64_t>(oh.pos, content.size());
  const std::size_t take = static_cast<std::size_t>(
      std::min<std::uint64_t>(n, content.size() - start));
  Bytes out(content.begin() + static_cast<std::ptrdiff_t>(start),
            content.begin() + static_cast<std::ptrdiff_t>(start + take));

  OperationEvent event;
  event.op = OpType::read;
  event.pid = pid;
  event.path = oh.path;
  event.file_id = oh.file_id;
  event.handle = h.id;
  event.offset = start;
  event.length = n;
  event.data = ByteView(out);

  Status outcome = run_filtered(event, [&]() -> Status {
    oh.pos = start + take;
    ++counters_.reads;
    return Status::ok();
  });
  if (!outcome.is_ok()) return outcome;
  return out;
}

Status FileSystem::write(ProcessId pid, Handle h, ByteView data) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  OpenHandle& oh = it->second;
  if ((oh.mode & kWrite) == 0) {
    return Status(Errc::access_denied, "handle not open for write");
  }

  OperationEvent event;
  event.op = OpType::write;
  event.pid = pid;
  event.path = oh.path;
  event.file_id = oh.file_id;
  event.handle = h.id;
  event.offset = oh.pos;
  event.length = data.size();
  event.data = data;

  return run_filtered(event, [&]() -> Status {
    FileNode* node = find_file(oh.path);
    if (node == nullptr) return Status(Errc::not_found, oh.path);
    // Apply event.data, not the caller's buffer: a pre-callback filter
    // may have shrunk the event to a prefix (short write), and only the
    // surviving bytes may reach the disk.
    const ByteView put = event.data;
    const std::uint64_t end = oh.pos + put.size();
    // Copy-on-write with an exclusive-ownership fast path: when this
    // node is the only holder of the buffer (no snapshot clones, no
    // engine baselines, no digest-cache pin referencing it), mutate in
    // place — this is what keeps streamed multi-gigabyte appends O(n)
    // instead of O(n^2). The digest cache keys by buffer identity and
    // relies on its pin forcing the copy: a pinned buffer never changes.
    // Buffers are always *created* as mutable Bytes, so the const_cast
    // below never touches a genuinely const object.
    if (node->data.use_count() == 1) {
      Bytes& buf = const_cast<Bytes&>(*node->data);
      if (buf.size() < end) buf.resize(static_cast<std::size_t>(end), 0);
      std::copy(put.begin(), put.end(),
                buf.begin() + static_cast<std::ptrdiff_t>(oh.pos));
    } else {
      const Bytes& old = *node->data;
      auto fresh = std::make_shared<Bytes>();
      fresh->reserve(static_cast<std::size_t>(std::max<std::uint64_t>(end, old.size())));
      fresh->assign(old.begin(), old.end());
      if (fresh->size() < end) fresh->resize(static_cast<std::size_t>(end), 0);
      std::copy(put.begin(), put.end(),
                fresh->begin() + static_cast<std::ptrdiff_t>(oh.pos));
      node->data = std::move(fresh);
    }
    oh.pos = end;
    oh.wrote = true;
    oh.wrote_bytes += put.size();
    ++counters_.writes;
    return Status::ok();
  });
}

Status FileSystem::truncate(ProcessId pid, Handle h, std::uint64_t new_size) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  OpenHandle& oh = it->second;
  if ((oh.mode & kWrite) == 0) {
    return Status(Errc::access_denied, "handle not open for write");
  }

  OperationEvent event;
  event.op = OpType::truncate;
  event.pid = pid;
  event.path = oh.path;
  event.file_id = oh.file_id;
  event.handle = h.id;
  event.length = new_size;

  return run_filtered(event, [&]() -> Status {
    FileNode* node = find_file(oh.path);
    if (node == nullptr) return Status(Errc::not_found, oh.path);
    auto fresh = std::make_shared<Bytes>(*node->data);
    fresh->resize(static_cast<std::size_t>(new_size), 0);
    node->data = std::move(fresh);
    oh.wrote = true;
    return Status::ok();
  });
}

Status FileSystem::seek(ProcessId pid, Handle h, std::uint64_t pos) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  it->second.pos = pos;
  return Status::ok();
}

Status FileSystem::close(ProcessId pid, Handle h) {
  auto it = handles_.find(h.id);
  if (it == handles_.end() || it->second.pid != pid) {
    return Status(Errc::invalid_argument, "bad handle");
  }
  const OpenHandle oh = it->second;

  OperationEvent event;
  event.op = OpType::close;
  event.pid = pid;
  event.path = oh.path;
  event.file_id = oh.file_id;
  event.handle = h.id;
  event.wrote = oh.wrote;
  event.wrote_bytes = oh.wrote_bytes;

  // Close is never denied (a filter cannot keep a handle alive), but the
  // pre/post pair still fires so the engine can run its measurements.
  return run_filtered(event, [&]() -> Status {
    handles_.erase(h.id);
    ++counters_.closes;
    return Status::ok();
  });
}

Status FileSystem::remove(ProcessId pid, std::string_view raw_path) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();

  const FileNode* node = find_file(path);
  if (node == nullptr) {
    if (dirs_.contains(path)) return Status(Errc::is_a_directory, path);
    return Status(Errc::not_found, path);
  }
  if (node->read_only) return Status(Errc::read_only, path);

  OperationEvent event;
  event.op = OpType::remove;
  event.pid = pid;
  event.path = path;
  event.file_id = node->id;

  return run_filtered(event, [&]() -> Status {
    files_.erase(path);
    ++counters_.removes;
    return Status::ok();
  });
}

Status FileSystem::rename(ProcessId pid, std::string_view raw_from, std::string_view raw_to) {
  auto checked_from = check_path(raw_from);
  if (!checked_from) return checked_from.status();
  auto checked_to = check_path(raw_to);
  if (!checked_to) return checked_to.status();
  const std::string from = std::move(checked_from).value();
  const std::string to = std::move(checked_to).value();

  const FileNode* src = find_file(from);
  if (src == nullptr) {
    if (dirs_.contains(from)) {
      return Status(Errc::invalid_argument, "directory rename unsupported");
    }
    return Status(Errc::not_found, from);
  }
  if (to.empty() || dirs_.contains(to)) return Status(Errc::is_a_directory, to);
  const FileNode* dst = find_file(to);
  if (dst != nullptr && dst->read_only) return Status(Errc::read_only, to);

  OperationEvent event;
  event.op = OpType::rename;
  event.pid = pid;
  event.path = from;
  event.file_id = src->id;
  event.dest_path = to;
  event.dest_file_id = dst != nullptr ? dst->id : kNoFile;

  return run_filtered(event, [&]() -> Status {
    if (from == to) return Status::ok();
    if (Status s = ensure_parents(to); !s.is_ok()) return s;
    auto it = files_.find(from);
    FileNode node = std::move(it->second);
    files_.erase(it);
    files_.insert_or_assign(to, std::move(node));
    ++counters_.renames;
    return Status::ok();
  });
}

// --------------------------------------------------------------------
// Filtered conveniences
// --------------------------------------------------------------------

Result<Bytes> FileSystem::read_file(ProcessId pid, std::string_view raw_path) {
  auto handle = open(pid, raw_path, kRead);
  if (!handle) return handle.status();
  auto info = stat(raw_path);
  const std::size_t size = info ? static_cast<std::size_t>(info.value().size) : 0;
  auto data = read(pid, handle.value(), size);
  // Close regardless of the read outcome; report the first error.
  Status closed = close(pid, handle.value());
  if (!data) return data;
  if (!closed.is_ok()) return closed;
  return data;
}

Status FileSystem::write_file(ProcessId pid, std::string_view raw_path, ByteView data) {
  auto handle = open(pid, raw_path, kWrite | kCreate | kTruncate);
  if (!handle) return handle.status();
  Status wrote = write(pid, handle.value(), data);
  Status closed = close(pid, handle.value());
  if (!wrote.is_ok()) return wrote;
  return closed;
}

// --------------------------------------------------------------------
// Unfiltered inspection
// --------------------------------------------------------------------

bool FileSystem::exists(std::string_view raw_path) const {
  auto norm = normalize_path(raw_path);
  if (!norm) return false;
  return files_.contains(*norm) || dirs_.contains(*norm);
}

bool FileSystem::is_directory(std::string_view raw_path) const {
  auto norm = normalize_path(raw_path);
  return norm && dirs_.contains(*norm);
}

Result<FileInfo> FileSystem::stat(std::string_view raw_path) const {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const FileNode* node = find_file(checked.value());
  if (node == nullptr) return Status(Errc::not_found, checked.value());
  FileInfo info;
  info.id = node->id;
  info.size = node->data->size();
  info.read_only = node->read_only;
  return info;
}

std::shared_ptr<const Bytes> FileSystem::read_unfiltered(std::string_view raw_path) const {
  auto norm = normalize_path(raw_path);
  if (!norm) return nullptr;
  const FileNode* node = find_file(*norm);
  return node != nullptr ? node->data : nullptr;
}

std::vector<DirEntry> FileSystem::list(std::string_view raw_path) const {
  std::vector<DirEntry> out;
  auto norm = normalize_path(raw_path);
  if (!norm || !dirs_.contains(*norm)) return out;
  const std::string prefix = norm->empty() ? std::string() : *norm + "/";

  auto in_subtree = [&](const std::string& p) {
    return p.size() > prefix.size() && p.compare(0, prefix.size(), prefix) == 0;
  };
  auto is_immediate = [&](const std::string& p) {
    return p.find('/', prefix.size()) == std::string::npos;
  };

  for (auto it = dirs_.upper_bound(prefix); it != dirs_.end() && in_subtree(*it); ++it) {
    if (!is_immediate(*it)) continue;
    out.push_back(DirEntry{.name = it->substr(prefix.size()), .is_directory = true, .size = 0});
  }
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && in_subtree(it->first); ++it) {
    if (!is_immediate(it->first)) continue;
    out.push_back(DirEntry{.name = it->first.substr(prefix.size()),
                           .is_directory = false,
                           .size = it->second.data->size()});
  }
  std::sort(out.begin(), out.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return out;
}

std::vector<std::string> FileSystem::list_files_recursive(std::string_view raw_path) const {
  std::vector<std::string> out;
  auto norm = normalize_path(raw_path);
  if (!norm) return out;
  for (const auto& [path, node] : files_) {
    (void)node;
    if (path_is_under(path, *norm)) out.push_back(path);
  }
  return out;
}

std::vector<std::string> FileSystem::list_dirs_recursive(std::string_view raw_path) const {
  std::vector<std::string> out;
  auto norm = normalize_path(raw_path);
  if (!norm) return out;
  for (const auto& dir : dirs_) {
    if (dir != *norm && path_is_under(dir, *norm)) out.push_back(dir);
  }
  return out;
}

// --------------------------------------------------------------------
// Unfiltered mutation
// --------------------------------------------------------------------

Status FileSystem::put_file_raw(std::string_view raw_path, Bytes data, bool read_only) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();
  if (path.empty() || dirs_.contains(path)) return Status(Errc::is_a_directory, path);
  if (Status s = ensure_parents(path); !s.is_ok()) return s;
  FileNode node;
  node.data = std::make_shared<Bytes>(std::move(data));
  node.read_only = read_only;
  auto it = files_.find(path);
  if (it != files_.end()) {
    node.id = it->second.id;
    it->second = std::move(node);
  } else {
    node.id = next_file_id_++;
    files_.emplace(path, std::move(node));
  }
  return Status::ok();
}

Status FileSystem::mkdir_raw(std::string_view raw_path) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  const std::string path = std::move(checked).value();
  if (files_.contains(path)) return Status(Errc::not_a_directory, path);
  if (Status s = ensure_parents(path_join(path, "x")); !s.is_ok()) return s;
  dirs_.insert(path);
  return Status::ok();
}

Status FileSystem::set_read_only(std::string_view raw_path, bool read_only) {
  auto checked = check_path(raw_path);
  if (!checked) return checked.status();
  FileNode* node = find_file(checked.value());
  if (node == nullptr) return Status(Errc::not_found, checked.value());
  node->read_only = read_only;
  return Status::ok();
}

}  // namespace cryptodrop::vfs
