package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/bookshelf"
	"repro/internal/db"
)

// problems lists why a placed design is not a valid result: overlapping
// cells, cells outside their fence or the die, and cells the legalizer
// could not place and clamped instead. Empty means it passed.
func problems(d *db.Design, fallbacks int) []string {
	var p []string
	if n := d.OverlapViolations(); n > 0 {
		p = append(p, fmt.Sprintf("%d overlaps", n))
	}
	if n := d.FenceViolations(); n > 0 {
		p = append(p, fmt.Sprintf("%d fence violations", n))
	}
	if n := d.OutOfDie(); n > 0 {
		p = append(p, fmt.Sprintf("%d cells out of the die", n))
	}
	if fallbacks > 0 {
		p = append(p, fmt.Sprintf("%d legalizer fallbacks", fallbacks))
	}
	return p
}

// plHash digests the design's Bookshelf .pl bytes.
func plHash(d *db.Design) (string, error) {
	h := sha256.New()
	if err := bookshelf.WritePl(h, d); err != nil {
		return "", fmt.Errorf("write .pl: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
