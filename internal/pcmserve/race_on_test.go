//go:build race

package pcmserve

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation allocates on its own and voids allocation gates.
const raceEnabled = true
