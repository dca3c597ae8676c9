//go:build !race

package pcmserve

const raceEnabled = false
