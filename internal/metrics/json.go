package metrics

import (
	"encoding/json"
	"io"
)

// WriteJSON writes the table as indented JSON (the -json CLI output).
func (t Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
