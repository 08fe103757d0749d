// Package ecc models how an SSD controller copes with uncorrectable
// reads: the block-retirement tracker that retires a block once its
// read-retry tally exhausts a budget. The BCH codeword model that grounds
// nand.WearModel's correctability threshold lives with its tests
// (scheme_test.go); no simulation path prices a codeword.
package ecc
