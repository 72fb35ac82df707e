#!/bin/sh
# Size of the tests: _test.go lines per package directory and the total,
# bench/ left out, counted as scripts/loc.sh counts the program. The total is
# printed last, and is a ratchet like loc's: scripts/check.sh fails when it
# exceeds the one in scripts/census.txt, so test lines only go down too.
exec sh "$(dirname "$0")/loc.sh" tests
