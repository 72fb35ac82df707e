//go:build !race

package compress_test

const raceEnabled = false
