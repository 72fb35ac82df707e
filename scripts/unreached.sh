#!/bin/sh
# Exported funcs under internal/ that no non-test Go uses, resolved by type;
# the rules and every survivor's reason are in scripts/census.go's header.
cd "$(dirname "$0")/.." && exec go run scripts/census.go unreached
