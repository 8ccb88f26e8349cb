//go:build !race

package hcc_test

const raceEnabled = false
