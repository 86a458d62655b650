#!/usr/bin/env bash
# End-to-end checks of the `heffter` console script on PATH, in a fresh temporary directory; exits 0, or 1
# with a line naming the failed check.  README "Tests and the acceptance suite" runs it from a checkout, where
# a relative PYTHONPATH entry (src, beside a shim) names a directory of where the script started.
set -eo pipefail
trap 'echo "failed at line $LINENO: $BASH_COMMAND" >&2' ERR
[ -z "${PYTHONPATH:-}" ] || export PYTHONPATH="$(python3 -c 'import os, sys; print(os.pathsep.join(map(os.path.abspath, sys.argv[1].split(os.pathsep))))' "$PYTHONPATH")"
work=$(mktemp -d); trap 'rm -rf "$work"' EXIT
cd "$work"
fail() { echo "$*" >&2; exit 1; }
# exits CODE ARGS...: `heffter ARGS` exits CODE within 10 s; its stdout is left in out.txt
exits() { local code=0; timeout 10 heffter "${@:2}" > out.txt || code=$?; [ "$code" -eq "$1" ] || fail "heffter ${*:2}: exit $code, want $1"; }
# refused CODE ARGS...: `heffter ARGS` exits CODE within 10 s and prints nothing on stdout
refused() { exits "$@"; [ ! -s out.txt ] || fail "heffter ${*:2}: $(wc -c < out.txt) bytes on stdout, want none"; }

heffter gen3 --n 100 > a.txt
heffter embed --file a.txt
heffter gen3 --n 101 > b.txt
heffter embed --file b.txt
heffter develop --cols --file a.txt
heffter develop --rows --file b.txt
heffter generate --m 5 --n 7 --seed 1 > g.txt
heffter search --file g.txt
heffter search --file g.txt --strategy exhaustive
heffter search --file g.txt --all
heffter generate --m 3 --n 9 --budget 90908
heffter generate --m 7 --n 4 --seed 1
sed 's/$/\r/' a.txt > crlf.txt
heffter gen3 --n 236 > big.txt
heffter gen3 --n 4003 > c.txt
test "$(heffter genus --n 5)" = 94
heffter gen3 --n 800 > d.txt
heffter search --file d.txt > search_d.json
python3 -c 'import json; r = json.load(open("search_d.json")); assert r["permutation"] == list(range(1, 801)) and r["nodes"] == 800, r'
heffter reorder --file a.txt --perm "$(seq -s, 1 100)" > id.txt
cmp id.txt a.txt
heffter gen3 --n 666666 > /dev/null

refused 2 gen3 --n 2
refused 1 generate --m 40 --n 40 --budget 10000
refused 1 generate --m 3000 --n 3000 --budget 10
refused 2 generate --m 20000 --n 20000 --seed 1 --budget 400000000
refused 2 verify --file crlf.txt
refused 2 generate --m 3 --n 3 --budget 0
refused 2 embed --file big.txt --expand
refused 2 reorder --file a.txt --perm "+1,$(seq -s, 2 100)"
refused 2 develop --file a.txt
refused 2 gen3 --n 1000000
refused 2 gen3 --n 666667
refused 2 gen3 --n 1_0
refused 2 generate --m 3 --n 3 --seed +1

# Three exits print by design: a budget-stopped search report and two help texts.
exits 1 search --file g.txt --budget 1 && grep -q '"status": "budget_exceeded"' out.txt
exits 0 --help && grep -q '^usage: heffter ' out.txt
exits 0 search --help && grep -q '^usage: heffter search ' out.txt
if [ -e /dev/full ]; then  # a stdout that cannot take the result is exit 2 and one error line
    code=0 && env -u PYTHONUNBUFFERED heffter genus --n 5 > /dev/full 2> err.txt || code=$?
    [ "$code $(cat err.txt)" = "2 error: [Errno 28] No space left on device" ] || fail "genus > /dev/full: exit $code, $(cat err.txt)"
fi

# orderings for even and odd n and verify at n = 4003 exit 0 with the bytes of json.dumps(doc, indent=2, sort_keys=True).
for report in "orderings --file a.txt" "orderings --file b.txt" "verify --file c.txt"; do
    heffter $report > report.json
    python3 -c 'import json, sys; sys.stdout.write(json.dumps(json.load(sys.stdin), indent=2, sort_keys=True) + "\n")' < report.json > canonical.json
    cmp canonical.json report.json || fail "heffter $report: not the bytes of json.dumps"
done
