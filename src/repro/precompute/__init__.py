"""What is left of the pool subsystem: see :mod:`.manager`."""
