#include "src/cache/cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "src/machine/cost_sim.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tune/actions.h"
#include "src/util/env.h"
#include "src/util/file_atomic.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace cache {

uint64_t
fnv1a64(const void* data, size_t len, uint64_t seed)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < len; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
fnv1a64(const std::string& s)
{
    return fnv1a64(s.data(), s.size());
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
cache_dir_from_env()
{
    return util::env_string("EXO2_CACHE_DIR", "");
}

namespace {

/** A key's 64-bit identity: its digest, then its text fields joined
 *  by '|'. */
uint64_t
key_hash(uint64_t digest, std::initializer_list<const std::string*> parts)
{
    uint64_t h = fnv1a64(&digest, sizeof(digest));
    const char* sep = "";
    for (const std::string* part : parts) {
        h = fnv1a64(sep, std::strlen(sep), h);
        h = fnv1a64(part->data(), part->size(), h);
        sep = "|";
    }
    return h;
}

}  // namespace

uint64_t
TuneKey::hash() const
{
    return key_hash(proc_digest, {&machine, &isa, &sizes});
}

uint64_t
CompileKey::hash() const
{
    return key_hash(source_digest, {&isa_flags, &compiler_id});
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

namespace {

const obs::StatsView<CacheStats> g_counters{
    {"cache.tune_hits", &CacheStats::tune_hits},
    {"cache.tune_misses", &CacheStats::tune_misses},
    {"cache.tune_stores", &CacheStats::tune_stores},
    {"cache.tune_store_failures", &CacheStats::tune_store_failures},
    {"cache.tune_corrupt", &CacheStats::tune_corrupt},
    {"cache.tune_stale", &CacheStats::tune_stale},
    {"cache.jit_hits", &CacheStats::jit_hits},
    {"cache.jit_misses", &CacheStats::jit_misses},
    {"cache.jit_stores", &CacheStats::jit_stores},
    {"cache.jit_store_failures", &CacheStats::jit_store_failures},
    {"cache.jit_corrupt", &CacheStats::jit_corrupt},
    {"cache.jit_stale", &CacheStats::jit_stale},
    {"cache.tmp_swept", &CacheStats::tmp_swept},
};

}  // namespace

CacheStats
cache_stats()
{
    return g_counters.read();
}

void
reset_cache_stats()
{
    g_counters.reset();
}

// ---------------------------------------------------------------------------
// Compiler identity
// ---------------------------------------------------------------------------

std::string
compiler_identity(const std::string& cc)
{
    static std::mutex mu;
    static std::map<std::string, std::string> memo;
    std::lock_guard<std::mutex> lk(mu);
    auto it = memo.find(cc);
    if (it != memo.end())
        return it->second;

    std::string id = cc;
    char tmpl[] = "/tmp/exo2_ccid_XXXXXX";
    int fd = mkstemp(tmpl);
    if (fd >= 0) {
        close(fd);
        verify::SpawnResult r =
            verify::run_command({cc, "--version"}, tmpl, 10.0);
        if (r.ok()) {
            std::string text;
            if (util::read_file_text(tmpl, &text)) {
                size_t nl = text.find('\n');
                id = cc + " " +
                     (nl == std::string::npos ? text
                                              : text.substr(0, nl));
            }
        }
        unlink(tmpl);
    }
    memo[cc] = id;
    return id;
}

// ---------------------------------------------------------------------------
// The entry codec (both caches)
// ---------------------------------------------------------------------------

namespace {

/** How a reader checks one header line. */
enum class Role {
    Version,  ///< an integer; a different value makes the entry stale
    Key,      ///< echoes the key; a different value is a hash collision
    Number,   ///< data for the caller; must parse as a number
};

/** One `name=value` header line. */
struct Line
{
    const char* name;
    Role role;
    std::string value;
};
using Header = std::vector<Line>;

enum class Outcome { Ok, Corrupt, Stale, KeyMismatch };

/** `s` is exactly one number of type T (std::from_chars: no sign on
 *  unsigned types, no whitespace, no trailing bytes). */
template <typename T, typename... Base>
bool
whole_number(const std::string& s, T* out, Base... base)
{
    const char* end = s.data() + s.size();
    auto [p, ec] = std::from_chars(s.data(), end, *out, base...);
    return !s.empty() && ec == std::errc() && p == end;
}

std::string
render_entry(const std::string& magic, const Header& header,
             const std::string& payload)
{
    std::string s = magic + "\n";
    for (const Line& l : header)
        s += std::string(l.name) + "=" + l.value + "\n";
    s += "payload_bytes=" + std::to_string(payload.size()) + "\n";
    s += "checksum=" + hex64(fnv1a64(payload)) + "\n";
    s += "---\n";
    s += payload;
    return s;
}

/**
 * The one parser of entry files. `header` holds the lines the reader
 * expects, in file order; Number lines receive the values read. A
 * structural fault (a missing, reordered or duplicated line, a
 * malformed number, a size or checksum mismatch) is Corrupt; a
 * different magic of the same `family` or a different version is
 * Stale; a different key echo is KeyMismatch.
 */
Outcome
parse_entry(const std::string& text, const char* family,
            const std::string& magic, Header* header,
            std::string* payload)
{
    size_t pos = 0;
    std::string line;
    auto next_line = [&] {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false;  // header lines end in a newline
        line.assign(text, pos, nl - pos);
        pos = nl + 1;
        return true;
    };
    auto value_of = [&](const char* name, std::string* value) {
        size_t n = std::strlen(name);
        if (!next_line() || line.compare(0, n, name) != 0 ||
            line.size() <= n || line[n] != '=')
            return false;
        value->assign(line, n + 1);
        return true;
    };

    if (!next_line())
        return Outcome::Corrupt;
    if (line != magic)
        return line.rfind(family, 0) == 0 ? Outcome::Stale
                                          : Outcome::Corrupt;

    bool stale = false, mismatch = false;
    std::string v;
    for (Line& l : *header) {
        if (!value_of(l.name, &v))
            return Outcome::Corrupt;
        long long version = 0;
        double number = 0;
        switch (l.role) {
          case Role::Version:
            if (!whole_number(v, &version))
                return Outcome::Corrupt;
            stale |= v != l.value;
            break;
          case Role::Key:
            mismatch |= v != l.value;
            break;
          case Role::Number:
            if (!whole_number(v, &number))
                return Outcome::Corrupt;
            l.value = v;
            break;
        }
    }
    uint64_t bytes = 0, checksum = 0;
    if (!value_of("payload_bytes", &v) || !whole_number(v, &bytes) ||
        !value_of("checksum", &v) || !whole_number(v, &checksum, 16) ||
        !next_line() || line != "---")
        return Outcome::Corrupt;
    if (stale)
        return Outcome::Stale;
    if (text.size() - pos != bytes ||
        fnv1a64(text.data() + pos, text.size() - pos) != checksum)
        return Outcome::Corrupt;  // truncated, padded, or bit damage
    if (mismatch)
        return Outcome::KeyMismatch;
    payload->assign(text, pos);
    return Outcome::Ok;
}

// ---------------------------------------------------------------------------
// The store (both caches)
// ---------------------------------------------------------------------------

/** What distinguishes the two caches on disk and in the counters. */
struct Format
{
    const char* family;       ///< magic line: "<family> v<version>"
    int version;
    const char* subdir;       ///< entries live in `<root>/<subdir>/`
    const char* ext;          ///< entry file: `<key hash><ext>`
    const char* probe_span;
    const char* store_span;
    const char* counters;     ///< counter prefix: "<counters>hits", ...
};

const Format kTune{"exo2-tune-cache", 1,       "tune",
                   ".tune",           "cache.tune_probe",
                   "cache.tune_store", "cache.tune_"};
const Format kJit{"exo2-jit-cache",  2,       "jit",
                  ".jit",            "cache.jit_probe",
                  "cache.jit_store", "cache.jit_"};

std::string
magic_of(const Format& f, int version)
{
    return std::string(f.family) + " v" + std::to_string(version);
}

void
count(const Format& f, const char* what)
{
    obs::counter(std::string(f.counters) + what).inc();
}

/** mkdir -p. Returns false when a component cannot be created. */
bool
ensure_dirs(const std::string& path)
{
    std::string cur;
    size_t pos = 0;
    while (pos <= path.size()) {
        size_t slash = path.find('/', pos);
        if (slash == std::string::npos)
            slash = path.size();
        cur = path.substr(0, slash);
        pos = slash + 1;
        if (cur.empty())
            continue;  // leading '/'
        if (mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    struct stat st;
    return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/**
 * Advisory exclusive lock on `<dir>/lock`, held for the guard's
 * lifetime. flock locks are per open-file-description, so two writers
 * contend whether they are threads of one process or separate
 * processes. Failure to acquire (e.g. unwritable dir) proceeds
 * unlocked: the atomic-rename publish is still safe, the lock only
 * orders a publish against its injected damage and a quarantine.
 */
class FlockGuard
{
  public:
    explicit FlockGuard(const std::string& dir)
    {
        std::string lock_path = dir + "/lock";
        fd_ = open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd_ >= 0 && flock(fd_, LOCK_EX) != 0) {
            close(fd_);
            fd_ = -1;
        }
    }
    ~FlockGuard()
    {
        if (fd_ >= 0) {
            flock(fd_, LOCK_UN);
            close(fd_);
        }
    }
    FlockGuard(const FlockGuard&) = delete;
    FlockGuard& operator=(const FlockGuard&) = delete;

  private:
    int fd_ = -1;
};

/**
 * Move `<dir>/<name>` into `<dir>/.bad/` under a unique name that
 * embeds `reason` ("corrupt", "stale", "load", ...), for post-mortem
 * inspection. Never throws; a failed rename falls back to unlink so a
 * damaged entry can never be served twice.
 */
void
quarantine(const std::string& dir, const std::string& name,
           const char* reason)
{
    static std::atomic<uint64_t> seq{0};
    std::string bad_dir = dir + "/.bad";
    ensure_dirs(bad_dir);
    std::string src = dir + "/" + name;
    std::string dst = bad_dir + "/" + name + "." + reason + "." +
                      std::to_string(::getpid()) + "." +
                      std::to_string(seq.fetch_add(1));
    if (rename(src.c_str(), dst.c_str()) != 0)
        unlink(src.c_str());
}

/** Damage a just-written entry in place, for the cache_corrupt
 *  injection site: flip a byte in the middle and truncate the tail so
 *  both the checksum and the length check have something to catch. */
void
corrupt_file_in_place(const std::string& path)
{
    std::string bytes;
    if (!util::read_file_text(path, &bytes) || bytes.empty())
        return;
    bytes[bytes.size() / 2] ^= 0x5a;                 // bit damage
    bytes.resize(bytes.size() - bytes.size() / 4);  // torn tail
    // Deliberately NOT atomic: this models in-place media damage.
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f) {
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }
}

/** The directory of `f` under `root`, created, with the temp files of
 *  dead writers swept; empty (disabled) when `root` is empty or
 *  unusable. */
std::string
open_store(const Format& f, const std::string& root)
{
    if (root.empty())
        return "";
    std::string dir = root + "/" + f.subdir;
    if (!ensure_dirs(dir))
        return "";
    // Crash-only recovery: reclaim temp files from writers that died
    // mid-write (their entries were never published).
    int swept = util::sweep_stale_tmp_files(dir);
    if (swept > 0)
        obs::counter("cache.tmp_swept").inc(static_cast<uint64_t>(swept));
    return dir;
}

std::string
entry_name(const Format& f, uint64_t hash)
{
    return hex64(hash) + f.ext;
}

/** Read the entry for `hash`. Corrupt and stale entries are
 *  quarantined; every outcome is counted. */
bool
probe_entry(const Format& f, const std::string& dir, uint64_t hash,
            Header* header, std::string* payload)
{
    EXO2_SPAN(f.probe_span);
    std::string name = entry_name(f, hash);
    std::string text;
    Outcome o = Outcome::KeyMismatch;  // an absent entry: a plain miss
    if (util::read_file_text(dir + "/" + name, &text))
        o = parse_entry(text, f.family, magic_of(f, f.version), header,
                        payload);
    if (o == Outcome::Corrupt || o == Outcome::Stale) {
        const char* why = o == Outcome::Stale ? "stale" : "corrupt";
        quarantine(dir, name, why);
        count(f, why);
    }
    count(f, o == Outcome::Ok ? "hits" : "misses");
    return o == Outcome::Ok;
}

/** Publish an entry for `hash` (atomic, flock-serialized). */
bool
store_entry(const Format& f, const std::string& dir, uint64_t hash,
            const Header& header, const std::string& payload)
{
    EXO2_SPAN(f.store_span);
    std::string path = dir + "/" + entry_name(f, hash);
    bool ok;
    {
        FlockGuard lock(dir);
        ok = util::write_file_atomic(
            path, render_entry(magic_of(f, f.version), header, payload),
            /*durable=*/true);

        // Structural fault injection (DESIGN.md §8): damage the entry
        // just published — for real, on disk — so the detection and
        // quarantine paths in probe_entry() face genuine damage.
        if (ok && verify::fault_should_inject(
                      verify::FaultSite::CacheCorrupt)) {
            corrupt_file_in_place(path);
        } else if (ok && verify::fault_should_inject(
                             verify::FaultSite::CacheStale)) {
            util::write_file_atomic(
                path,
                render_entry(magic_of(f, f.version - 1), header, payload),
                /*durable=*/true);
        }
    }
    count(f, ok ? "stores" : "store_failures");
    return ok;
}

void
invalidate_entry(const Format& f, const std::string& dir, uint64_t hash,
                 const char* reason)
{
    FlockGuard lock(dir);
    quarantine(dir, entry_name(f, hash), reason);
}

}  // namespace

// ---------------------------------------------------------------------------
// Tuning cache
// ---------------------------------------------------------------------------

namespace {

Header
tune_header(const TuneKey& key, const TuneEntry& e)
{
    char cost[64];
    std::snprintf(cost, sizeof(cost), "%.17g", e.cost);
    return {
        {"lib", Role::Version, std::to_string(tune::kScheduleLibraryVersion)},
        {"cost_model", Role::Version, std::to_string(kCostModelVersion)},
        {"digest", Role::Key, hex64(key.proc_digest)},
        {"machine", Role::Key, key.machine},
        {"isa", Role::Key, key.isa},
        {"sizes", Role::Key, key.sizes},
        {"cost", Role::Number, cost},
        {"validated", Role::Number, e.validated ? "1" : "0"},
    };
}

}  // namespace

TuneCache::TuneCache(std::string dir) : dir_(open_store(kTune, dir)) {}

std::optional<TuneEntry>
TuneCache::probe(const TuneKey& key) const
{
    if (!enabled())
        return std::nullopt;
    Header h = tune_header(key, TuneEntry());
    TuneEntry e;
    if (!probe_entry(kTune, dir_, key.hash(), &h, &e.script_text))
        return std::nullopt;
    for (const Line& l : h) {
        if (l.name == std::string("cost"))
            e.cost = std::strtod(l.value.c_str(), nullptr);
        else if (l.name == std::string("validated"))
            e.validated = l.value == "1";
    }
    return e;
}

bool
TuneCache::store(const TuneKey& key, const TuneEntry& entry) const
{
    return enabled() && store_entry(kTune, dir_, key.hash(),
                                    tune_header(key, entry),
                                    entry.script_text);
}

void
TuneCache::invalidate(const TuneKey& key, const char* reason) const
{
    if (enabled())
        invalidate_entry(kTune, dir_, key.hash(), reason);
}

// ---------------------------------------------------------------------------
// Compile cache
// ---------------------------------------------------------------------------

namespace {

Header
jit_header(const CompileKey& key)
{
    return {
        {"digest", Role::Key, hex64(key.source_digest)},
        {"flags", Role::Key, key.isa_flags},
        {"compiler", Role::Key, key.compiler_id},
    };
}

}  // namespace

CompileCache::CompileCache(std::string dir) : dir_(open_store(kJit, dir)) {}

std::optional<std::string>
CompileCache::probe(const CompileKey& key) const
{
    if (!enabled())
        return std::nullopt;
    Header h = jit_header(key);
    std::string object;
    if (!probe_entry(kJit, dir_, key.hash(), &h, &object))
        return std::nullopt;
    return object;
}

bool
CompileCache::store(const CompileKey& key,
                    const std::string& so_path) const
{
    if (!enabled())
        return false;
    std::string object;
    if (!util::read_file_text(so_path, &object) || object.empty()) {
        count(kJit, "store_failures");
        return false;
    }
    return store_entry(kJit, dir_, key.hash(), jit_header(key), object);
}

void
CompileCache::invalidate(const CompileKey& key, const char* reason) const
{
    if (enabled())
        invalidate_entry(kJit, dir_, key.hash(), reason);
}

}  // namespace cache
}  // namespace exo2
