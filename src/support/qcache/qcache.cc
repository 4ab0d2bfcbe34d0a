#include "support/qcache/qcache.hh"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "support/env.hh"
#include "support/faults.hh"
#include "support/linecodec.hh"
#include "support/logging.hh"

namespace scamv::qcache {

using linecodec::g17;
using linecodec::hex;
using linecodec::parseDouble;
using linecodec::parseHex;
using linecodec::parseU64;
using linecodec::split;

namespace {

/**
 * Record grammar (one line per entry, space-separated fields):
 *
 *   <hi> <lo> <fp> <S|U> <D|-> <payload> <checksum>
 *
 * hex words, then outcome, pair-death flag, the payload and the
 * linecodec checksum over everything before it.  The payload is
 * `<model>#<delta>` with comma-separated typed tokens:
 *
 *   v!v<i>:hex        bitvector variable value
 *   o!b<i>:0|1        boolean variable value
 *   M!m<i>@addr:val   one memory cell (hex address/value)
 *   c!name:dec        counter delta
 *   g!name:g17        gauge delta (%.17g, exact round-trip)
 *   h!name:b|..~c|..~sum~count   histogram delta
 *
 * Model variables are canonical indices, written as their canonical
 * names; a token whose name is not canonical for its tag drops the
 * record.  Metric names in this codebase are [A-Za-z0-9_.]+, so the
 * delimiters never collide; an entry whose names do collide is simply
 * not persisted (kept in memory only).
 */

/** @return true iff `name` is safe for the record grammar above. */
bool
nameOk(std::string_view name)
{
    return !name.empty() &&
           name.find_first_of(" ,:;~|#@!\n\r\t") ==
               std::string_view::npos;
}

template <class Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &map)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(map.size());
    for (const auto &[k, v] : map)
        keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    return keys;
}

/**
 * The set values of `values` with their canonical names, sorted by
 * name as strings (v10 before v2), the order records have always
 * listed them in.
 */
template <class T>
std::vector<std::pair<std::string, const T *>>
byName(const expr::SlotValues<T> &values, expr::Sort sort)
{
    std::vector<std::pair<std::string, const T *>> named;
    values.forEach([&](std::uint32_t i, const T &v) {
        named.emplace_back(canonicalName(sort, i), &v);
    });
    std::sort(named.begin(), named.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return named;
}

/** Indices past this are not canonical: no formula has that many
 *  variables, and a damaged record must not size a model by it. */
constexpr std::uint64_t kMaxCanonIndex = 1 << 16;

/** @return true iff `name` is canonical name `index` of `sort`. */
bool
parseCanonicalName(std::string_view name, expr::Sort sort,
                   std::uint32_t &index)
{
    std::uint64_t i;
    if (name.size() < 2 || !parseU64(name.substr(1), i) ||
        i >= kMaxCanonIndex)
        return false;
    index = static_cast<std::uint32_t>(i);
    return canonicalName(sort, index) == name;
}

/** Encode model + delta as the payload field, or "" on unsafe names. */
std::string
encodePayload(const Entry &e)
{
    std::string out;
    auto push = [&](const std::string &token) {
        if (!out.empty() && out.back() != '#')
            out += ',';
        out += token;
    };
    for (const auto &[name, v] : byName(e.model.bvVars, expr::Sort::Bv))
        push("v!" + name + ":" + hex(*v));
    for (const auto &[name, v] :
         byName(e.model.boolVars, expr::Sort::Bool))
        push("o!" + name + ":" + (*v ? "1" : "0"));
    for (const auto &[name, mem] : byName(e.model.mems, expr::Sort::Mem)) {
        const auto &cells = mem->entries();
        for (const auto &addr : sortedKeys(cells))
            push("M!" + name + "@" + hex(addr) + ":" +
                 hex(cells.at(addr)));
    }
    out += '#';
    for (const auto &[name, v] : e.delta.counters) {
        if (!nameOk(name))
            return "";
        push("c!" + name + ":" + std::to_string(v));
    }
    for (const auto &[name, v] : e.delta.gauges) {
        if (!nameOk(name))
            return "";
        push("g!" + name + ":" + g17(v));
    }
    for (const auto &[name, h] : e.delta.histograms) {
        if (!nameOk(name))
            return "";
        std::string tok = "h!" + name + ":";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
            if (i)
                tok += '|';
            tok += g17(h.bounds[i]);
        }
        tok += '~';
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            if (i)
                tok += '|';
            tok += std::to_string(h.counts[i]);
        }
        tok += '~' + g17(h.sum) + '~' + std::to_string(h.count);
        push(tok);
    }
    return out;
}

bool
decodeModelToken(std::string_view token, CanonModel &model)
{
    if (token.size() < 4 || token[1] != '!')
        return false;
    const char tag = token[0];
    std::string_view body = token.substr(2);
    const std::size_t colon = body.rfind(':');
    if (colon == std::string_view::npos || colon == 0)
        return false;
    std::string_view value = body.substr(colon + 1);
    std::string_view name = body.substr(0, colon);
    std::uint32_t index;
    if (tag == 'v') {
        std::uint64_t v;
        if (!parseCanonicalName(name, expr::Sort::Bv, index) ||
            !parseHex(value, v))
            return false;
        model.bvVars[index] = v;
        return true;
    }
    if (tag == 'o') {
        if (!parseCanonicalName(name, expr::Sort::Bool, index) ||
            (value != "0" && value != "1"))
            return false;
        model.boolVars[index] = value == "1";
        return true;
    }
    if (tag == 'M') {
        const std::size_t at = name.find('@');
        if (at == std::string_view::npos || at == 0)
            return false;
        std::uint64_t addr, v;
        if (!parseCanonicalName(name.substr(0, at), expr::Sort::Mem,
                                index) ||
            !parseHex(name.substr(at + 1), addr) || !parseHex(value, v))
            return false;
        model.mems[index].storeWord(addr, v);
        return true;
    }
    return false;
}

bool
decodeDeltaToken(std::string_view token, metrics::Snapshot &delta)
{
    if (token.size() < 4 || token[1] != '!')
        return false;
    const char tag = token[0];
    std::string_view body = token.substr(2);
    const std::size_t colon = body.find(':');
    if (colon == std::string_view::npos || colon == 0)
        return false;
    const std::string name(body.substr(0, colon));
    std::string_view value = body.substr(colon + 1);
    if (tag == 'c') {
        std::uint64_t v;
        if (!parseU64(value, v))
            return false;
        delta.counters[name] = v;
        return true;
    }
    if (tag == 'g') {
        double v;
        if (!parseDouble(value, v))
            return false;
        delta.gauges[name] = v;
        return true;
    }
    if (tag == 'h') {
        const auto parts = split(value, '~');
        if (parts.size() != 4)
            return false;
        metrics::HistogramData h;
        if (!parts[0].empty()) {
            for (std::string_view b : split(parts[0], '|')) {
                double v;
                if (!parseDouble(b, v))
                    return false;
                h.bounds.push_back(v);
            }
        }
        for (std::string_view c : split(parts[1], '|')) {
            std::uint64_t v;
            if (!parseU64(c, v))
                return false;
            h.counts.push_back(v);
        }
        if (!parseDouble(parts[2], h.sum) ||
            !parseU64(parts[3], h.count))
            return false;
        // Malformed shapes would panic inside Registry::merge later;
        // reject them here so a corrupt record costs one drop, not
        // the campaign.
        if (h.counts.size() != h.bounds.size() + 1 ||
            !std::is_sorted(h.bounds.begin(), h.bounds.end()) ||
            std::adjacent_find(h.bounds.begin(), h.bounds.end()) !=
                h.bounds.end())
            return false;
        delta.histograms[name] = std::move(h);
        return true;
    }
    return false;
}

std::size_t
entryBytes(const Entry &e)
{
    std::size_t b = 128; // slot + bookkeeping overhead
    // A model variable costs its canonical name's length, v<i>.
    const auto name_size = [](std::uint32_t i) {
        return std::to_string(i).size() + 1;
    };
    e.model.bvVars.forEach([&](std::uint32_t i, std::uint64_t) {
        b += name_size(i) + 24;
    });
    e.model.boolVars.forEach(
        [&](std::uint32_t i, bool) { b += name_size(i) + 17; });
    e.model.mems.forEach(
        [&](std::uint32_t i, const expr::ConcreteMemory &mem) {
            b += name_size(i) + 48 + 24 * mem.entries().size();
        });
    for (const auto &[name, v] : e.delta.counters)
        b += name.size() + 24;
    for (const auto &[name, v] : e.delta.gauges)
        b += name.size() + 24;
    for (const auto &[name, h] : e.delta.histograms)
        b += name.size() + 48 +
             8 * (h.bounds.size() + h.counts.size());
    return b;
}

} // namespace

std::string
encodeRecord(const Key &key, const Entry &e)
{
    const std::string payload = encodePayload(e);
    if (payload.empty())
        return ""; // unsafe names: keep the entry in memory only
    std::string line = hex(key.hi) + " " + hex(key.lo) + " " +
                       hex(e.fingerprint) + " " +
                       (e.sat ? "S" : "U") + " " +
                       (e.pairDead ? "D" : "-") + " " + payload;
    return linecodec::seal(std::move(line));
}

std::optional<std::pair<Key, Entry>>
decodeRecord(std::string_view line)
{
    const std::optional<std::string_view> prefix =
        linecodec::unseal(line);
    if (!prefix)
        return std::nullopt;
    const auto fields = split(*prefix);
    if (fields.size() != 6)
        return std::nullopt;
    for (const auto &f : fields)
        if (f.empty())
            return std::nullopt;

    Key key;
    Entry e;
    if (!parseHex(fields[0], key.hi) || !parseHex(fields[1], key.lo) ||
        !parseHex(fields[2], e.fingerprint))
        return std::nullopt;
    if (fields[3] == "S")
        e.sat = true;
    else if (fields[3] == "U")
        e.sat = false;
    else
        return std::nullopt;
    if (fields[4] == "D")
        e.pairDead = true;
    else if (fields[4] != "-")
        return std::nullopt;

    std::string_view payload = fields[5];
    const std::size_t hash_pos = payload.find('#');
    if (hash_pos == std::string_view::npos)
        return std::nullopt;
    std::string_view model_part = payload.substr(0, hash_pos);
    std::string_view delta_part = payload.substr(hash_pos + 1);
    if (!model_part.empty())
        for (std::string_view token : split(model_part, ','))
            if (!decodeModelToken(token, e.model))
                return std::nullopt;
    if (!delta_part.empty())
        for (std::string_view token : split(delta_part, ','))
            if (!decodeDeltaToken(token, e.delta))
                return std::nullopt;
    if (!e.sat && !e.model.bvVars.empty())
        return std::nullopt; // Unsat records carry no model
    return std::make_pair(key, std::move(e));
}

QueryCache::QueryCache(CacheConfig config) : cfg(std::move(config))
{
    if (!cfg.filePath.empty())
        loadFile();
}

QueryCache::~QueryCache()
{
    if (append_.is_open())
        append_.flush();
}

void
QueryCache::loadFile()
{
    metrics::Registry &g = metrics::Registry::global();
    bool fresh = true;
    {
        std::ifstream in(cfg.filePath);
        std::string line;
        if (in && std::getline(in, line)) {
            if (line != kFileHeader) {
                warn("qcache: " + cfg.filePath +
                     " is not a " + kFileHeader +
                     " file; persistence disabled");
                return;
            }
            fresh = false;
            std::uint64_t loaded = 0;
            while (std::getline(in, line)) {
                if (line.empty())
                    continue;
                // Injected record corruption: the persisted bytes
                // are damaged before they are parsed, so the record
                // is dropped exactly as a genuinely corrupt one.
                const bool corrupt =
                    faults::maybeInject(faults::Site::QcacheCorrupt);
                std::optional<std::pair<Key, Entry>> rec;
                if (!corrupt)
                    rec = decodeRecord(line);
                if (!rec) {
                    ++dropped_;
                    g.counter("qcache.load_dropped").inc();
                    continue;
                }
                if (index.count(rec->first))
                    continue; // keep-first on duplicate keys
                Slot slot{rec->first,
                          std::make_shared<const Entry>(
                              std::move(rec->second)),
                          0};
                slot.bytes = entryBytes(*slot.entry);
                lru.push_front(std::move(slot));
                index.emplace(lru.front().key, lru.begin());
                bytes_ += lru.front().bytes;
                ++loaded;
                evictToFit();
            }
            g.counter("qcache.loaded").add(loaded);
        }
    }
    append_.open(cfg.filePath, std::ios::app);
    if (!append_) {
        warn("qcache: cannot open " + cfg.filePath +
             " for append; persistence disabled");
        return;
    }
    if (fresh)
        append_ << kFileHeader << "\n" << std::flush;
}

void
QueryCache::appendRecord(const Key &key, const Entry &entry)
{
    const std::string line = encodeRecord(key, entry);
    if (line.empty())
        return;
    // Flushed per record: the file is a checkpoint, and a killed
    // campaign must find every completed query on resume.
    append_ << line << "\n" << std::flush;
}

std::shared_ptr<const Entry>
QueryCache::lookup(const Key &key, std::uint64_t fingerprint)
{
    metrics::Registry &g = metrics::Registry::global();
    std::lock_guard<std::mutex> lock(m);
    auto it = index.find(key);
    if (it == index.end()) {
        counters.in(g, kMiss).inc();
        return nullptr;
    }
    if (it->second->entry->fingerprint != fingerprint) {
        // Semantic cousin: same canonical class, different operand
        // order.  Treat as a miss so the hit path stays an exact
        // replay (see file comment in qcache.hh).
        counters.in(g, kFpConflict).inc();
        counters.in(g, kMiss).inc();
        return nullptr;
    }
    lru.splice(lru.begin(), lru, it->second);
    counters.in(g, kHit).inc();
    return it->second->entry;
}

void
QueryCache::store(const Key &key, Entry entry)
{
    metrics::Registry &g = metrics::Registry::global();
    std::lock_guard<std::mutex> lock(m);
    if (index.count(key))
        return; // keep-first: determinism makes duplicates identical
    Slot slot{key, std::make_shared<const Entry>(std::move(entry)), 0};
    slot.bytes = entryBytes(*slot.entry);
    lru.push_front(std::move(slot));
    index.emplace(key, lru.begin());
    bytes_ += lru.front().bytes;
    counters.in(g, kStore).inc();
    if (append_.is_open())
        appendRecord(key, *lru.front().entry);
    evictToFit();
}

void
QueryCache::dropInvalid(const Key &key)
{
    std::lock_guard<std::mutex> lock(m);
    auto it = index.find(key);
    if (it == index.end())
        return;
    bytes_ -= it->second->bytes;
    lru.erase(it->second);
    index.erase(it);
}

void
QueryCache::evictToFit()
{
    metrics::Registry &g = metrics::Registry::global();
    while (bytes_ > cfg.maxBytes && !lru.empty()) {
        bytes_ -= lru.back().bytes;
        index.erase(lru.back().key);
        lru.pop_back();
        g.counter("qcache.evict").inc();
    }
}

std::size_t
QueryCache::size() const
{
    std::lock_guard<std::mutex> lock(m);
    return lru.size();
}

std::size_t
QueryCache::totalBytes() const
{
    std::lock_guard<std::mutex> lock(m);
    return bytes_;
}

bool
QueryCache::contains(const Key &key) const
{
    std::lock_guard<std::mutex> lock(m);
    return index.count(key) != 0;
}

CacheConfig
QueryCache::configFromEnv()
{
    CacheConfig c;
    c.maxBytes = static_cast<std::size_t>(
                     envLong("SCAMV_QCACHE_MB", 0, 1048576)
                         .value_or(0))
                 << 20;
    if (const char *f = std::getenv("SCAMV_QCACHE_FILE"); f && *f)
        c.filePath = f;
    return c;
}

QueryCache *
QueryCache::sharedFromEnv()
{
    // Latched on first use; still-reachable at exit by design (the
    // destructor flushes the checkpoint stream).
    static std::unique_ptr<QueryCache> shared = [] {
        CacheConfig c = configFromEnv();
        return c.maxBytes
                   ? std::make_unique<QueryCache>(std::move(c))
                   : std::unique_ptr<QueryCache>();
    }();
    return shared.get();
}

} // namespace scamv::qcache
