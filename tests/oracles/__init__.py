"""Reference implementations the parity tests diff ``src/`` against."""
