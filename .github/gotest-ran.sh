#!/usr/bin/env bash
# gotest-ran.sh runs `go test` with the arguments given and fails when the
# -run pattern names a test that did not run. go test itself passes then:
# it prints "testing: warning: no tests to run" when no name of the pattern
# matches in a package, and nothing at all when another name does. Pass -v,
# whose "=== RUN" lines say which tests ran.
#
#   bash .github/gotest-ran.sh -race -v -run 'TestA|TestB' ./pkg
set -u
out=$(go test "$@" 2>&1)
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || exit "$status"
if grep -q 'testing: warning: no tests to run' <<<"$out"; then
	echo "gotest-ran: a -run pattern matched no test in a package" >&2
	exit 1
fi
pattern= prev=
for arg in "$@"; do
	[ "$prev" = -run ] && pattern=$arg
	case $arg in -run=*) pattern=${arg#-run=} ;; esac
	prev=$arg
done
[ -n "$pattern" ] || exit 0
IFS='|' read -ra names <<<"$pattern"
for name in "${names[@]}"; do
	name=${name#^}
	name=${name%\$}
	if ! grep -qE "^=== RUN +[^ ]*${name}" <<<"$out"; then
		echo "gotest-ran: -run names $name, and no test of that name ran" >&2
		exit 1
	fi
done
