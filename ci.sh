#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc, the full workspace test suite, the
# benchmark package's own tests and --check miniature, and CLI smoke
# runs. Writes nothing into the tree (the last step checks).
# Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo check benchmark/ (every name the measurement stack spells still"
echo "    resolves — seconds, not the full suite, when a refactor breaks one)"
cargo check --offline --manifest-path benchmark/Cargo.toml

echo "==> tracked Rust lines, the per-file ceiling, one-implementer traits, uncalled pub fns,"
echo "    unselected variants, one-value config fields, unnamed deps, advert reads and oracle reads"
# The count every simplicity PR quotes; and no file under crates/*/src may
# pass 1,000 lines, so split modules do not silently grow back into one.
# Files past 800 are listed without failing: the next PR that touches one
# splits it first, instead of a reviewer finding it with wc.
echo "    $(git ls-files crates src tests examples vendor | grep '\.rs$' | xargs cat | wc -l) lines under crates/ src/ tests/ examples/ vendor/"
echo "    $(git ls-files 'crates/*/src/*.rs' | xargs cat | wc -l) of them under crates/*/src (the library code a simplicity PR shrinks)"
over() {
    git ls-files 'crates/*/src/*.rs' | xargs wc -l \
        | awk -v max="$1" '$2 != "total" && $1 > max { print "    " $2 ": " $1 " lines" }'
}
NEARING=$(over 800)
test -z "$NEARING" || { echo "    over 800 lines (ceiling 1,000):"; echo "$NEARING"; }
OVERSIZE=$(over 1000)
test -z "$OVERSIZE" \
    || { echo "$OVERSIZE" >&2; echo "source file over 1,000 lines: split it" >&2; exit 1; }

# Each listing below goes through one gate: an offender its allowlist
# does not name fails, and so does an allowlist entry that no longer
# offends, so every list only shrinks. KEY is the awk expression that
# reads an offender's name from its listing line; every allowlist entry
# carries its reason, naming a ROADMAP item by its words.
shrink_only() { # shrink_only WHAT FIX KEY LISTING ALLOWED...
    local what=$1 fix=$2 key=$3 listing=$4 names extra stale
    shift 4
    test -z "$listing" || { echo "    $what:"; echo "$listing"; }
    names=$(awk "NF { print $key }" <<< "$listing")
    extra=$(grep -vxF -f <(printf '%s\n' "$@") <<< "$names" || true)
    test -z "$extra" || { echo "$extra" >&2; echo "$what: $fix" >&2; exit 1; }
    stale=$(printf '%s\n' "$@" | grep -vxF -f <(echo "$names") || true)
    test -z "$stale" \
        || { echo "$stale" >&2; echo "no longer among the $what: drop its allowlist entry" >&2; exit 1; }
}

# A trait with one implementer is a seam nobody uses: counts `impl …
# Trait … for` lines over crates/ and benchmark/src.
LONELY=$(git grep -hoE '^\s*pub trait \w+' -- 'crates/*/src/*.rs' | awk '{ print $3 }' | sort -u \
    | while read -r t; do
        n=$(git grep -hE "^\s*impl(<.*>)? (\w+::)*$t(<.*>)? for " -- crates benchmark/src | wc -l)
        test "$n" -ge 2 || echo "    $t ($n)"
    done)
LONE_TRAITS=(
    MetricsSink # benchmark item: benchmark/src names its type parameter, and only that item edits benchmark/
)
shrink_only "pub traits with fewer than two impls" "give it a second impl or fold it into its one" \
    '$1' "$LONELY" "${LONE_TRAITS[@]}"

# A function nothing calls is code nobody runs: every
# `pub fn` under crates/*/src whose name is a word of no line of non-test
# code but the `pub fn` lines defining it, comments stripped (so two
# uncalled functions of one name do not hide each other). Callers are
# searched in every tracked .rs file (examples/ and benchmark/src count)
# but tests/, crates/*/tests/, vendor/, `tests.rs` modules and whatever
# follows a file's first #[cfg(test)]; a `use` or `pub use` item, over
# however many lines, names a function without calling it, so it does not
# count. An offender is keyed by its file and name, so an allowlisted
# name excuses no namesake elsewhere.
UNCALLED=$(git ls-files '*.rs' ':!tests/*' ':!crates/*/tests/*' ':!vendor/*' \
    | xargs awk '
        /#\[cfg\(test\)\]/ { cut[FILENAME] = 1 }
        cut[FILENAME] || FILENAME ~ /\/tests\.rs$/ { next }
        FILENAME ~ /^crates\/[^\/]+\/src\// && match($0, /^ *pub fn [A-Za-z_][A-Za-z0-9_]*/) {
            name = substr($0, 1, RLENGTH); sub(/^ *pub fn /, "", name)
            defs[++d] = name; at[d] = FILENAME; defined[name]++
        }
        /^ *(pub(\([a-z]+\))? )?use / { in_use = 1 }
        in_use { if (/;/) in_use = 0; next }
        {
            line = $0; sub(/\/\/.*/, "", line); gsub(/[^A-Za-z0-9_]+/, " ", line)
            n = split(line, words, " "); delete once
            for (i = 1; i <= n; i++) if (!(words[i] in once)) { once[words[i]] = 1; lines[words[i]]++ }
        }
        END { for (i = 1; i <= d; i++) if (lines[defs[i]] == defined[defs[i]]) print "    " at[i] ": " defs[i] }')
UNCALLED_FNS=(
    "crates/workload/src/dist.rs: pmf"                   # the Zipf formula prop_workload.rs checks sampled ranks against
    "crates/webcache/src/digest.rs: expected_fp_rate"    # the Bloom formula digest.rs's test checks sampled false positives against
    "crates/serve/src/bus.rs: run_deterministic"         # serve's parity reference: the bus on a virtual clock, held equal to the sharded kernel
    "crates/sim/src/event.rs: scheduled_count"           # prop_kernel.rs's differential check of the queue against the reference queue
    "crates/sim/src/event/reference.rs: scheduled_count" # the reference queue's side of that check
    "crates/experiments/src/emit.rs: capture"            # test sink: the experiments' tests read a run's tables through it
    "crates/experiments/src/emit.rs: captured"           # test sink: reads back what `capture` kept
    "crates/experiments/src/emit.rs: tables_emitted"     # test sink: registry.rs counts an experiment's tables
    "crates/experiments/src/emit.rs: rows_emitted"       # test sink: registry.rs counts an experiment's rows
    "crates/telemetry/src/timeline.rs: window_count"     # test accessor: the determinism tests count a timeline's windows
    "crates/telemetry/src/tracer.rs: sink_mut"           # test accessor: inspect.rs's tests read a tracer's records back
    "crates/stats/src/histogram.rs: variance"            # test accessor: prop_invariants.rs checks a histogram's spread
    "crates/core/src/stats_store.rs: record_exploration" # candidate-pool item: it folds exploration replies in through it, or deletes it
)
shrink_only "pub fns no other line of non-test code names" "call it outside tests or delete it" \
    '$1 " " $2' "$UNCALLED" "${UNCALLED_FNS[@]}"

# A variant no other file spells is a knob nobody selects: every
# `pub enum` under crates/*/src except a world's `*Event`s (its own
# handlers produce those), each variant searched as `Enum::Variant` in
# every other tracked .rs file outside vendor/.
UNSELECTED=$({ git grep -oE '\b[A-Z]\w*::[A-Z]\w*' -- '*.rs' ':!vendor'; echo '--'
        git ls-files 'crates/*/src/*.rs' | xargs awk '
            FNR == 1 { name = "" }
            { match($0, /^ */); lead = RLENGTH; rest = substr($0, lead + 1) }
            rest ~ /^pub enum [A-Za-z0-9_]+/ {
                name = rest; sub(/^pub enum /, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
                if (name ~ /Event$/) name = ""
                ind = lead; next
            }
            name == "" { next }
            lead == ind && rest ~ /^}/ { name = ""; next }
            lead == ind + 4 && match(rest, /^[A-Z][A-Za-z0-9_]*/) {
                print FILENAME ":" name "::" substr(rest, 1, RLENGTH)
            }'
    } | awk -F: '
        $0 == "--" { defs = 1; next }
        !defs { seen[$2 "::" $4] = seen[$2 "::" $4] " " $1; next }
        { n = split(seen[$2 "::" $4], fs, " "); other = 0
          for (i = 1; i <= n; i++) if (fs[i] != $1) other = 1
          if (!other) print "    " $1 ": " $2 "::" $4 }')
UNSELECTED_VARIANTS=()
shrink_only "pub enum variants no other file spells" "select it somewhere or delete it" \
    '$1 " " $2' "$UNSELECTED" "${UNSELECTED_VARIANTS[@]}"

# A config field nothing outside tests sets is a knob with one value: it
# belongs in a const beside its reader. Every `pub` field of a `*Config`
# struct under crates/*/src is searched as a `.field =` assignment or a
# `field:` line of a `Name { … }` literal in every tracked .rs file but the
# struct's own, and as a shorthand `field,` line (a constructor argument)
# in any literal, skipping tests/, crates/*/tests/, examples/, vendor/ and
# whatever follows a file's first #[cfg(test)]. The fields a ROADMAP item
# has still to decide are allowlisted in DEFERRED_KNOBS.
UNASSIGNED=$(git ls-files '*.rs' ':!tests/*' ':!crates/*/tests/*' ':!examples/*' ':!vendor/*' \
    | xargs awk '
        /#\[cfg\(test\)\]/ { cut[FILENAME] = 1 }
        !cut[FILENAME] { m++; from[m] = FILENAME; text[m] = $0 }
        function indent(s) { match(s, /^ */); return RLENGTH }
        END {
            for (j = 1; j <= m; j++) {
                line = text[j]
                if (from[j] ~ /^crates\/[^\/]+\/src\// && match(line, /^ *pub struct [A-Za-z0-9_]*Config[ {]/)) {
                    cur = line; sub(/^ *pub struct /, "", cur); sub(/[^A-Za-z0-9_].*/, "", cur)
                    home[cur] = from[j]; ind = indent(line); continue
                }
                if (cur == "") continue
                if (indent(line) == ind && line ~ /^ *}/) { cur = ""; continue }
                if (indent(line) == ind + 4 && match(line, /^ *pub [a-z_][a-z0-9_]*:/)) {
                    f = line; sub(/^ *pub /, "", f); sub(/:.*/, "", f)
                    n++; sname[n] = cur; fname[n] = f
                }
            }
            # Literals: a line naming `Config {` opens one; its field lines
            # sit one level deeper; a `}` at its own indentation closes it.
            depth = 0
            for (j = 1; j <= m; j++) {
                line = text[j]
                if (depth > 0 && indent(line) == lind[depth] && line ~ /^ *}/) { depth--; continue }
                if (depth > 0 && indent(line) == lind[depth] + 4 && match(line, /^ *[a-z_][a-z0-9_]*[:,]/)) {
                    f = substr(line, 1, RLENGTH - 1); sub(/^ */, "", f)
                    shorthand = substr(line, RLENGTH, 1) == ","
                    if (shorthand || from[j] != home[lname[depth]]) set[lname[depth] "::" f] = 1
                }
                if (line ~ /^ *(pub )?(struct|impl|enum|fn) /) continue
                for (s in home)
                    if (match(line, "(^|[^A-Za-z0-9_])" s " \\{ *$")) {
                        depth++; lname[depth] = s; lind[depth] = indent(line)
                    }
            }
            for (i = 1; i <= n; i++) {
                if (set[sname[i] "::" fname[i]]) continue
                re = "\\." fname[i] "[ \t]*=[^=]"
                hit = 0
                for (j = 1; j <= m && !hit; j++)
                    if (from[j] != home[sname[i]] && text[j] ~ re) hit = 1
                if (!hit) print "    " home[sname[i]] ": " sname[i] "::" fname[i]
            }
        }')
DEFERRED_KNOBS=(
    WebCacheConfig::mean_request_interval # invariants item: test-sized, pinned by runtime_regression.rs
    WebCacheConfig::digest_refresh        # invariants item: test-sized, pinned by stale_digests_hurt
    PeerOlapConfig::mean_query_interval   # invariants item: test-sized, pinned by runtime_regression.rs
    WorkloadConfig::categories            # scale-figure item: the paper's value; benchmark/ reads it
    WorkloadConfig::theta                 # scale-figure item: the paper's value; benchmark/ reads it
    WorkloadConfig::library_mean          # scale-figure item: the paper's value
    WorkloadConfig::library_std           # scale-figure item: the paper's value
    WorkloadConfig::favorite_fraction     # scale-figure item: the paper's value
    WorkloadConfig::secondary_categories  # scale-figure item: the paper's value
    WorkloadConfig::mean_query_interval   # scale-figure item: the paper's value
)
shrink_only "pub *Config fields no file outside tests assigns" "make it a const beside its reader" \
    '$NF' "$UNASSIGNED" "${DEFERRED_KNOBS[@]}"

# A `ddr-*` dependency whose `ddr_*` name appears nowhere under its crate
# is dead weight in every build.
UNNAMED=$(git ls-files 'crates/*/Cargo.toml' | while read -r manifest; do
        dir=${manifest%/Cargo.toml}
        sed -n 's/^\(ddr-[a-z-]*\)[. =].*/\1/p' "$manifest" | while read -r dep; do
            git grep -qw "${dep//-/_}" -- "$dir" || echo "    $dir: $dep"
        done
    done)
UNNAMED_DEPS=(
    "crates/peerolap: ddr-net" # benchmark item: dropping it rewrites benchmark/Cargo.lock, which only that item edits
    "crates/webcache: ddr-net" # benchmark item: dropping it rewrites benchmark/Cargo.lock, which only that item edits
)
shrink_only "ddr-* dependencies their crate never names" "drop it from the crate's Cargo.toml" \
    '$1 " " $2' "$UNNAMED" "${UNNAMED_DEPS[@]}"

# A node knows another node only through messages (world rule 4 in
# crates/gnutella/src/world.rs). The compiler keeps every read of a
# `SharedWorld` row on `own`, `advert` and `oracle`; one pass lists each
# `.advert(` call (a node's published facts, read by reference) and each
# `.oracle(` call (what no message carries) in non-test code under
# crates/*/src, keyed by its file and the fn it sits in (comments
# stripped; a file's first #[cfg(test)] onwards and `tests.rs` modules
# skipped). It does not see an `own` call on another node, nor a slice
# column indexed with another node's `li`. An advert entry names the
# message that carried the node, an oracle entry the fact no message
# carries yet; either says why the reader is no node.
READS=$(git ls-files 'crates/*/src/*.rs' | xargs awk '
    /#\[cfg\(test\)\]/ { cut[FILENAME] = 1 }
    cut[FILENAME] || FILENAME ~ /\/tests\.rs$/ { next }
    {
        line = $0; sub(/\/\/.*/, "", line)
        if (match(line, /(^|[^A-Za-z0-9_])fn [A-Za-z_][A-Za-z0-9_]*/)) {
            cur = substr(line, RSTART, RLENGTH); sub(/^.*fn /, "", cur)
        }
        if (line ~ /\.advert\(/) print "advert    " FILENAME ": " cur
        if (line ~ /\.oracle\(/) print "oracle    " FILENAME ": " cur
    }' | sort -u)
ADVERT_READS=(
    "crates/gnutella/src/reconfigure.rs: plan_update"      # an incumbent's link handshake or a candidate's ReplyArrive named it; a free rider advertises nothing
    "crates/gnutella/src/membership.rs: handshake_request" # InviteArrive names the inviter, whose summary the summary-gated policy compares with the invitee's own
    "crates/gnutella/src/search.rs: refresh_index"         # the holders the oracle's r-hop snapshot reaches; no message names them yet
    "crates/gnutella/src/invariants.rs: of"                # Census::of: the checker, not a node, counts evictions by the evicted node's role
)
shrink_only "advert() reads of another node's published facts" "name the node in a message first, or read the node's own row through own()" \
    '$1 " " $2' "$(sed -n 's/^advert//p' <<< "$READS")" "${ADVERT_READS[@]}"
ORACLE_READS=(
    "crates/gnutella/src/search.rs: index_holder"          # holder liveness
    "crates/gnutella/src/search.rs: refresh_index"         # the r-hop snapshot of neighbor views, which is why local indices need the full range
    "crates/gnutella/src/invariants.rs: of"                # Census::of: the checker, not a node, reads private profiles
)
shrink_only "oracle() reads of another node's state" "carry the fact on a message, or read the node's own row through own()" \
    '$1 " " $2' "$(sed -n 's/^oracle//p' <<< "$READS")" "${ORACLE_READS[@]}"

echo "==> counter names live in the metrics lists, not in string-literal hub.counter calls"
# A counter is named once: in a `counters()` list, which a
# `ddr_stats::metrics!` declaration derives from its fields and which
# `sample_metrics` loops over. A string
# literal handed to `.counter(` in non-test code under crates/*/src (a
# file's first #[cfg(test)] onwards and `tests.rs` modules skipped) names
# one a second time and fails; serve's `queries_offered` is the one
# exception, because the bus, not a world, holds it.
LITERAL=$(git ls-files 'crates/*/src/*.rs' | xargs awk '
    /#\[cfg\(test\)\]/ { cut[FILENAME] = 1 }
    cut[FILENAME] || FILENAME ~ /\/tests\.rs$/ { prev = ""; next }
    {
        call = prev ~ /\.counter\($/ ? prev $0 : $0
        if (call ~ /\.counter\([ \t]*"/ && call !~ /\.counter\([ \t]*"queries_offered"/)
            print FILENAME ":" FNR ": " $0
        prev = $0
    }')
test -z "$LITERAL" || {
    echo "$LITERAL" >&2
    echo "a counter is named by a string literal: add it to its metrics list instead" >&2
    exit 1
}

echo "==> metrics records are declared once, with ddr_stats::metrics!"
# A metrics record's zero, shard merge and counter names come from its one
# `ddr_stats::metrics!` declaration. A hand-written `impl Default for
# …Metrics` or `fn merge(&mut self, other: &…Metrics)` in non-test code
# under crates/*/src (a file's first #[cfg(test)] onwards and `tests.rs`
# modules skipped) writes every field a second time and fails.
HANDWRITTEN=$(git ls-files 'crates/*/src/*.rs' | xargs awk '
    /#\[cfg\(test\)\]/ { cut[FILENAME] = 1 }
    cut[FILENAME] || FILENAME ~ /\/tests\.rs$/ { next }
    /impl(<[^>]*>)? +Default +for +[A-Za-z0-9_:]*Metrics([^A-Za-z0-9_]|$)/ ||
    /fn merge\(&mut self, *[a-z_]+: *&[A-Za-z0-9_:]*Metrics\)/ { print FILENAME ":" FNR ": " $0 }')
test -z "$HANDWRITTEN" || {
    echo "$HANDWRITTEN" >&2
    echo "a metrics record is written by hand: declare it with ddr_stats::metrics! instead" >&2
    exit 1
}

echo "==> threads start in four files"
# A thread is started where its lifetime and its determinism argument are
# written down: the data-parallel map that sweeps and world builds share
# (sim/src/parallelism.rs), the sharded kernel's workers
# (sim/src/sharded/threads.rs) and the serve bus and its observer
# (serve/src/bus.rs, serve/src/monitor.rs). `thread::spawn`,
# `thread::scope` or `thread::Builder` in any other non-test file under
# crates/*/src (a file's first #[cfg(test)] onwards and `tests.rs` modules
# skipped) fails: call ddr_sim::map_chunked instead.
SPAWNS=$(git ls-files 'crates/*/src/*.rs' \
    ':!crates/sim/src/parallelism.rs' ':!crates/sim/src/sharded/threads.rs' \
    ':!crates/serve/src/bus.rs' ':!crates/serve/src/monitor.rs' \
    | xargs awk '
        /#\[cfg\(test\)\]/ { cut[FILENAME] = 1 }
        cut[FILENAME] || FILENAME ~ /\/tests\.rs$/ { next }
        /thread::(spawn|scope|Builder)/ { print FILENAME ":" FNR ": " $0 }')
test -z "$SPAWNS" || {
    echo "$SPAWNS" >&2
    echo "a thread starts outside the four files that may start one" >&2
    exit 1
}

echo "==> every world's pub enum *Event derives Copy (no message owns a heap payload)"
# The `#[derive(...)]` lines run up to the enum through doc comments and
# other attributes; an enum whose derives do not name Copy fails.
NOT_COPY=$(git ls-files 'crates/*/src/*.rs' | xargs awk '
    FNR == 1 { derives = "" }
    /^ *#\[derive\(/ { derives = derives $0; next }
    /^ *(#\[|\/\/\/)/ { next }
    /^ *pub enum [A-Za-z0-9_]*Event[^A-Za-z0-9_]/ && derives !~ /[(, ]Copy[,)]/ {
        name = $0; sub(/^ *pub enum /, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
        print FILENAME ":" FNR ": " name " does not derive Copy; a world event must be a plain value"
    }
    { derives = "" }')
test -z "$NOT_COPY" || { echo "$NOT_COPY" >&2; exit 1; }

echo "==> docs name only paths that exist, and a::b names the code still spells"
# Every backticked crates/…, tests/…, results/…, benchmark/… or examples/…
# path (a `:line` suffix dropped; globs and elisions skipped) must exist.
# README, DESIGN and EXPERIMENTS fail on a missing one; ROADMAP's are only
# listed, because it names files still to be built.
doc_paths() {
    grep -oE '`(crates|tests|results|benchmark|examples)/[^`]*`' "$1" | tr -d '`' | sort -u \
        | while read -r path; do
            path=${path%%:*}
            case "$path" in *'*'* | *'…'* | *'<'* | *' '*) continue ;; esac
            test -e "$path" || echo "    $1: $path"
        done
}
MISSING=$(for doc in README.md DESIGN.md EXPERIMENTS.md; do doc_paths "$doc"; done)
test -z "$MISSING" || { echo "$MISSING" >&2; echo "a doc names a path that does not exist" >&2; exit 1; }
PLANNED=$(doc_paths ROADMAP.md)
test -z "$PLANNED" || { echo "    ROADMAP paths not built yet:"; echo "$PLANNED"; }
# A backticked `a::b::c` whose last two segments are not both words of the
# non-test Rust sources names something renamed or deleted. Listed, not
# failed: history in prose may name what is gone on purpose.
WORDS=$(git grep -ohwE '[A-Za-z_][A-Za-z0-9_]*' -- '*.rs' ':!tests/*' ':!crates/*/tests/*' | sort -u)
STALE=$(for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md; do
        grep -oE '`[^`]*`' "$doc" | tr -d '`' \
            | grep -oE '^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' | sort -u \
            | while read -r name; do
                last=${name##*::}
                owner=${name%::*}
                owner=${owner##*::}
                grep -qxF "$last" <<< "$WORDS" && grep -qxF "$owner" <<< "$WORDS" \
                    || echo "    $doc: $name"
            done
    done)
test -z "$STALE" || { echo "    backticked names the sources no longer spell:"; echo "$STALE"; }

echo "==> EXPERIMENTS.md and DESIGN.md stay at most 800 lines"
# The per-file source ceiling applied to the two docs: a write-up that
# repeats CHANGES.md grows them back, and the ledger rows hold the numbers.
for doc in EXPERIMENTS.md DESIGN.md; do
    n=$(wc -l < "$doc")
    echo "    $doc: $n lines"
    test "$n" -le 800 || { echo "$doc is $n lines; keep it to 800" >&2; exit 1; }
done

echo "==> every citation names a section that exists"
# A section of EXPERIMENTS.md is cited as the file name, a space and the
# heading in double quotes on one line. The quoted text is a `##` / `###`
# heading, that heading up to its first " — " or " (", or the first cell
# of a "Measured decisions" row. A section of DESIGN.md is cited as
# `DESIGN.md §N` (or `DESIGN §N`), one number per citation, N a `## N.`
# heading. The last cell of a "Performance trajectory" row names its
# "Measured decisions" row in the same form. Every tracked file is read
# but CHANGES.md and ISSUE.md, whose entries cite sections as they were,
# and REVIEW.md, a review's JSON with one field per line.
CITABLE=$(awk '
    /^```/ { code = !code; next }
    code { next }
    /^##+ / {
        h = $0; sub(/^#+ /, "", h); print h
        s = h; sub(/ — .*/, "", s); print s
        s = h; sub(/ \(.*/, "", s); print s
        ledger = h == "Measured decisions"; next
    }
    ledger && /^\| / && !/^\|---/ { c = $0; sub(/^\| */, "", c); sub(/ *\|.*/, "", c); print c }
' EXPERIMENTS.md; grep -oE '^## [0-9]+\.' DESIGN.md | sed -E 's/^## ([0-9]+)\./§\1/')
BAD_CITES=$(git grep -l -I -E 'EXPERIMENTS\.md|DESIGN(\.md)? §' -- ':!CHANGES.md' ':!ISSUE.md' ':!REVIEW.md' \
    | xargs awk '
        FNR == NR { known[$0] = 1; next }
        function bad(why) { print "    " FILENAME ":" FNR ": " why }
        FNR == 1 { prev = ""; section = "" }
        FILENAME == "EXPERIMENTS.md" && /^##+ / { section = $0; sub(/^#+ /, "", section) }
        FILENAME == "EXPERIMENTS.md" && section == "Performance trajectory" && /^\| / && !/^\|---/ {
            last = $0; sub(/ *\| *$/, "", last); sub(/.*\| */, "", last)
            gsub(/EXPERIMENTS\.md "[^"]*"/, "", last)
            if (last ~ /"/) bad("write the row a trajectory row names as EXPERIMENTS.md \"<row>\"")
        }
        {
            line = $0
            if (prev ~ /EXPERIMENTS\.md[^ ]* *$/ && line ~ /^[ \t\/!#*>-]*"/ ||
                prev ~ /DESIGN(\.md)? *$/ && line ~ /^[ \t\/!#*>(-]*§/) bad("citation split across lines")
            rest = line
            while (match(rest, /EXPERIMENTS\.md[^ ]* "/)) {
                form = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
                end = index(rest, "\"")
                if (end == 0) { bad("citation split across lines"); break }
                name = substr(rest, 1, end - 1); rest = substr(rest, end + 1)
                if (form != "EXPERIMENTS.md \"") bad("write the citation as the file name, a space and the quoted heading: \"" name "\"")
                else if (!(name in known)) bad("no EXPERIMENTS.md section \"" name "\"")
            }
            rest = line
            while (match(rest, /DESIGN(\.md)? §[0-9]+/)) {
                cite = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
                n = cite; sub(/.*§/, "", n)
                if (!(("§" n) in known)) bad("no DESIGN.md §" n)
                if (rest ~ /^[–-]/) bad("one section per citation: " cite rest)
            }
            prev = line
        }' <(echo "$CITABLE") -)
test -z "$BAD_CITES" || { echo "$BAD_CITES" >&2; echo "a citation names a section that does not exist" >&2; exit 1; }

echo "==> no numbered ROADMAP pointer outside ROADMAP.md, CHANGES.md, ISSUE.md and REVIEW.md"
# ROADMAP renumbers its items at every re-anchor, so a number goes stale:
# name the item by its words instead.
NUMBERED=$(git grep -n -I -E "ROADMAP(\.md)?('s)? (items? )?[0-9]" -- ':!ROADMAP.md' ':!CHANGES.md' ':!ISSUE.md' ':!REVIEW.md' || true)
test -z "$NUMBERED" || { echo "$NUMBERED" >&2; echo "a numbered ROADMAP pointer: name the item by its words" >&2; exit 1; }

echo "==> results/README.md names every file under results/, and each file it names exists"
MANIFEST=$(grep -oE '`[A-Za-z0-9_.-]+\.(csv|json|txt)`' results/README.md | tr -d '`' | sort -u)
UNNAMED=$(find results -type f ! -name README.md | sed 's|^results/||' | sort | comm -23 - <(echo "$MANIFEST"))
test -z "$UNNAMED" || { echo "$UNNAMED" >&2; echo "a results/ file the manifest does not name" >&2; exit 1; }
ABSENT=$(echo "$MANIFEST" | while read -r f; do test -e "results/$f" || echo "$f"; done)
test -z "$ABSENT" || { echo "$ABSENT" >&2; echo "the manifest names a results/ file that does not exist" >&2; exit 1; }
echo "    $(echo "$MANIFEST" | wc -l) files"

echo "==> the newest CHANGES.md entry is at most 12 lines"
# An entry runs from a line starting `- **PR` to the next one; the newest
# runs to the end of the file. Older entries are history and not reflowed.
ENTRY=$(awk '/^- \*\*PR/ { start = NR } END { print NR - start + 1 }' CHANGES.md)
echo "    $ENTRY lines"
test "$ENTRY" -le 12 \
    || { echo "the newest CHANGES.md entry is $ENTRY lines; keep it to 12" >&2; exit 1; }

echo "==> cargo doc (rustdoc -D warnings: dangling or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test -q --release -p ddr-sim (kernel differentials, the queue memory"
echo "    bound on a zero-sized and on a u64 payload, the overflow-migration order"
echo "    of bare-payload buckets, and merge_assigns_the_seqs_of_a_sort_by_key's"
echo "    window merge over hand-built outboxes, against the optimised build the"
echo "    benchmark measures; the debug step above runs the migration order's and"
echo "    the merge's sorted-outbox debug_asserts)"
cargo test -q --release -p ddr-sim

echo "==> cargo test -q --release -p ddr-serve (the timer wheel's differential, and the"
echo "    virtual clock == sharded kernel Metrics equality through the bus ring, on the"
echo "    optimised build the benchmark measures: overflow checks off, links and prefetch"
echo "    hints inlined)"
cargo test -q --release -p ddr-serve

echo "==> cargo test -q --release -p ddr-core (the dup cache's long differential against"
echo "    its hash-set-plus-ring model, 12-byte packed slots and all, on the optimised"
echo "    build the benchmark measures)"
cargo test -q --release -p ddr-core

echo "==> cargo test -q --release -p ddr-gnutella --test prop_sharded_world (the hint"
echo "    hooks are unsafe intrinsics over computed addresses that only the fat-LTO"
echo "    build inlines into the ring: serial == sharded, whole report, on that build)"
cargo test -q --release -p ddr-gnutella --test prop_sharded_world

echo "==> benchmark/ unit tests (the one measurement stack)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> ddr-benchmark --check (15 s miniature of all seven workloads; also"
echo "    proves the benchmark still compiles against these crates)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check

echo "==> ddr list (experiment registry enumerates)"
cargo run -q --release -p ddr-experiments --bin ddr -- list

DDR="cargo run -q --release -p ddr-experiments --bin ddr --"

echo "==> ddr run --all --smoke == tests/golden/all_smoke.txt (every registered"
echo "    experiment runs and prints the bytes it printed at the last re-pin), and"
echo "    no golden line ends in whitespace"
$DDR run --all --smoke 2> /dev/null | diff crates/experiments/tests/golden/all_smoke.txt - \
    || { echo "smoke stdout moved; if intended, regenerate the golden file" >&2; exit 1; }
# A golden line ending in whitespace is an output line ending in it.
TRAILING=$(git grep -n -I -E '[[:space:]]$' -- crates/experiments/tests/golden || true)
test -z "$TRAILING" \
    || { echo "$TRAILING" >&2; echo "golden output lines end in whitespace" >&2; exit 1; }

echo "==> bad flag values exit 2 within a second with a one-line diagnosis, not 134"
echo "    (under panic=abort only the binary shows an abort, ddr_main's tests cannot)"
echo "    nor a hang (a non-finite serve load once stopped the shards at once while"
echo "    the generator waited for elapsed >= inf)"
BIN="${CARGO_TARGET_DIR:-target}/release/ddr"
while IFS='|' read -r flag args; do
    status=0
    # shellcheck disable=SC2086  # $args is a word list
    stderr=$(timeout 1 "$BIN" $args 2>&1 > /dev/null) || status=$?
    test "$status" -eq 2 \
        || { echo "ddr $args: exit $status, want 2" >&2; exit 1; }
    diagnosis=${stderr%%$'\n'*}
    case "$diagnosis" in
        "bad value for $flag:"*"(must be "*) echo "    $diagnosis" ;;
        *)
            echo "ddr $args: stderr does not open with flag, value and rule: '$diagnosis'" >&2
            exit 1
            ;;
    esac
done << 'BAD'
--hours|run fig1 --hours 1
--scale|run fig1 --hours 2 --scale 3
--duration|serve gnutella --nodes 50 --qps 10 --duration inf --smoke
--duration|serve gnutella --nodes 50 --qps 10 --duration 1e300 --smoke
--qps|serve gnutella --qps inf --duration 0.2
BAD
# An output path under a missing directory: refused before anything runs,
# on `ddr run` by `prepare_outputs` and on `ddr serve` before the fleet.
UNWRITABLE="$(mktemp -d)"
for args in "run fig1 --smoke" "serve gnutella --nodes 20 --qps 10 --duration 0.2 --smoke"; do
    for flag in --metrics --trace; do
        status=0
        # shellcheck disable=SC2086  # $args is a word list
        stderr=$(timeout 1 "$BIN" $args "$flag" "$UNWRITABLE/missing/out.jsonl" 2>&1 > /dev/null) \
            || status=$?
        diagnosis=${stderr%%$'\n'*}
        test "$status" -eq 2 && [[ $diagnosis == "cannot write "* ]] \
            || { echo "ddr $args $flag <missing dir>: exit $status, '$diagnosis'; want 2, 'cannot write …'" >&2; exit 1; }
        echo "    $diagnosis"
    done
done
rmdir "$UNWRITABLE"

echo "==> telemetry smoke (trace + profile a run serially and on two shards; ddr inspect"
echo "    must read both traces complete and summarise them the same)"
TRACE="$(mktemp -t ddr-ci-trace.XXXXXX.jsonl)"
SHARDED_TRACE="$(mktemp -t ddr-ci-trace-sharded.XXXXXX.jsonl)"
METRICS="$(mktemp -t ddr-ci-metrics.XXXXXX.jsonl)"
DUP_METRICS="$(mktemp -t ddr-ci-dup-metrics.XXXXXX.jsonl)"
trap 'rm -f "$TRACE" "$SHARDED_TRACE" "$METRICS" "$DUP_METRICS"' EXIT
# `ddr inspect FILE`'s summary; fails unless it exits 0 (a complete trace).
inspect_complete() {
    local summary status=0
    summary=$($DDR inspect "$1") || status=$?
    test "$status" -eq 0 \
        || { echo "$summary" >&2; echo "ddr inspect $1 exited $status: 1 = incomplete, 2 = unreadable" >&2; return 1; }
    echo "$summary"
}
$DDR run fig1 --smoke --trace "$TRACE" --trace-sample 1 --profile > /dev/null
$DDR run fig1 --smoke --shards 2 --trace "$SHARDED_TRACE" --trace-sample 1 > /dev/null
test -s "$TRACE" || { echo "trace file is empty" >&2; exit 1; }
SERIAL_SUMMARY=$(inspect_complete "$TRACE")
SHARDED_SUMMARY=$(inspect_complete "$SHARDED_TRACE")
diff <(echo "$SERIAL_SUMMARY") <(echo "$SHARDED_SUMMARY") \
    || { echo "--shards 2 changed the trace summary" >&2; exit 1; }
echo "    $(echo "$SERIAL_SUMMARY" | grep '^query spans') complete (serial == 2 shards)"

echo "==> dup-cache memory guard (fig1 --smoke --metrics: each hourly sample's"
echo "    dup_cache_bytes gauge stays within its online nodes' initial 32-slot tables)"
# Under the flood horizon H (2 hops x 360 ms) a node remembers the ids of
# two windows of at most H each. At smoke load (at most 100 users, about
# 500 queries an hour fleet-wide) such a pair of windows holds far fewer
# than the 9 live ids a rebuild needs to outgrow the initial 32-slot
# table, and a cache holds no table until its session's first sighting,
# so an offline node holds none. So every sample's tables fit in its
# online gauge x 32 slots x 12 bytes, and the peak in 100 x 384 bytes,
# and the peak is not 0. Caches bound by their FIFO capacity alone reach
# 541,824 bytes here.
$DDR run fig1 --smoke --metrics "$DUP_METRICS" > /dev/null
DUP_OVER=$(awk '/"dup_cache_bytes"/ {
    b = o = -1
    if (match($0, /"dup_cache_bytes":[0-9.]+/)) b = substr($0, RSTART + 18, RLENGTH - 18) + 0
    if (match($0, /"online":[0-9.]+/)) o = substr($0, RSTART + 9, RLENGTH - 9) + 0
    if (o < 0 || b > o * 32 * 12) print "sample " NR ": dup_cache_bytes " b " > online " o " x 384"
}' "$DUP_METRICS")
test -z "$DUP_OVER" \
    || { echo "$DUP_OVER" >&2; echo "an offline node holds a dup table, or a table outgrew 32 slots" >&2; exit 1; }
DUP_PEAK=$(grep -o '"dup_cache_bytes":[0-9]*' "$DUP_METRICS" | cut -d: -f2 | sort -n | tail -1)
DUP_BOUND=$((100 * 32 * 12))
test "${DUP_PEAK:-0}" -gt 0 && test "$DUP_PEAK" -le "$DUP_BOUND" \
    || { echo "peak dup_cache_bytes ${DUP_PEAK:-none} outside (0, $DUP_BOUND]: is the flood horizon gone?" >&2; exit 1; }
echo "    every sample's dup_cache_bytes <= online x 384; peak $DUP_PEAK <= $DUP_BOUND"

echo "==> fig1 free_riders --smoke: serial == --shards 2 == --shards 3 --threads 2"
echo "    == --shards 2 metered+profiled (three shards: a 3-way window merge over"
echo "    an uneven partition)"
# Whole stdout, not a digest line: every table, summary, end-state cell
# and the in-line invariants note must survive the kernel swap and the
# observers (whose own notes are the only lines filtered out).
SERIAL=$($DDR run fig1 free_riders --smoke 2> /dev/null)
echo "$SERIAL" | grep -q '^invariants: ok' \
    || { echo "free_riders did not report invariants: ok" >&2; exit 1; }
SHARDED=$($DDR run fig1 free_riders --smoke --shards 2 2> /dev/null)
diff <(echo "$SERIAL") <(echo "$SHARDED") \
    || { echo "--shards 2 changed the output" >&2; exit 1; }
SHARDED3=$($DDR run fig1 free_riders --smoke --shards 3 --threads 2 2> /dev/null)
diff <(echo "$SERIAL") <(echo "$SHARDED3") \
    || { echo "--shards 3 --threads 2 changed the output" >&2; exit 1; }
OBSERVED=$($DDR run fig1 free_riders --smoke --shards 2 --metrics "$METRICS" --profile 2> /dev/null)
echo "$OBSERVED" | grep -q 'Sharded-kernel profile' \
    || { echo "--profile emitted no per-shard breakdown" >&2; exit 1; }
# A profile note runs from its title line to its `totals:` line; -B
# forgives the blank line each one leaves behind.
diff -B <(echo "$SERIAL") <(echo "$OBSERVED" | sed '/Sharded-kernel profile/,/^totals:/d') \
    || { echo "--metrics/--profile changed the output" >&2; exit 1; }
test -s "$METRICS" || { echo "metrics timeline file is empty" >&2; exit 1; }
$DDR inspect "$METRICS" > /dev/null
echo "    $(echo "$SERIAL" | grep '^digest:') (serial == 2 shards == 3 shards == metered+profiled)"

echo "==> examples (the five README walkthroughs run to completion)"
for example in quickstart music_sharing web_caching olap_caching policy_playground; do
    cargo run -q --release --example "$example" > /dev/null
done

echo "==> ddr serve --smoke --trace, then --metrics (real-time bus load test: every"
echo "    offered query is issued and completes, and at least one is answered; the"
echo "    spans come from every slice's own tracer and the timeline from the monitor's"
echo "    observer thread, so ddr inspect must read both, the trace complete). Both runs"
echo "    take two shards whatever the core count: cross-shard try_send, the outbox"
echo "    retry and a second inbox are all that differs from run_deterministic's"
echo "    virtual clock, and one shard skips them"
SERVE_TRACE="$(mktemp -t ddr-ci-serve.XXXXXX.jsonl)"
SERVE_METRICS="$(mktemp -t ddr-ci-serve-metrics.XXXXXX.jsonl)"
trap 'rm -f "$TRACE" "$SHARDED_TRACE" "$METRICS" "$DUP_METRICS" "$SERVE_TRACE" "$SERVE_METRICS"' EXIT
$DDR serve gnutella --nodes 200 --qps 50 --duration 1 --smoke --threads 2 --trace "$SERVE_TRACE"
inspect_complete "$SERVE_TRACE" > /dev/null
SERVE=$($DDR serve gnutella --nodes 200 --qps 50 --duration 2 --threads 2 --smoke \
    --metrics "$SERVE_METRICS")
echo "$SERVE"
$DDR inspect "$SERVE_METRICS" > /dev/null
COUNTS=$(echo "$SERVE" | sed -n 's/^serve: queries offered=\([0-9]*\) issued=\([0-9]*\) completed=\([0-9]*\) hits=\([0-9]*\)$/\1 \2 \3 \4/p')
# No such line in the output: counts that cannot pass.
read -r OFFERED ISSUED COMPLETED HITS <<< "${COUNTS:-0 -1 -1 0}"
test "$ISSUED" -eq "$OFFERED" && test "$COMPLETED" -eq "$OFFERED" && test "$HITS" -ge 1 \
    || { echo "serve smoke: want issued = completed = offered and hits >= 1" >&2; exit 1; }

echo "==> git status --porcelain (no gate may write into the tree)"
test -z "$(git status --porcelain)" \
    || { git status --porcelain >&2; echo "CI left the tree dirty" >&2; exit 1; }

echo "==> CI green"
