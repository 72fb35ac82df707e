//go:build race

package compress_test

// raceEnabled gates alloc-count assertions: the race runtime's bookkeeping
// allocates on paths that are alloc-free in a normal build.
const raceEnabled = true
