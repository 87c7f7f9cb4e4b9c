"""Host-time benchmark for TCUDB; see README.md beside this file."""
